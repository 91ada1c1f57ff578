"""The record contract: every record is frozen; value records compare and
hash on their class and fields, identity records on identity alone."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnewton.costs import (AbsPower, BrockettTrace, GrassmannTrace, Quadratic,
                           ShiftedCubic)
from gnewton.manifolds import (Euclidean, Grassmann, ManifoldDescriptor, Point,
                               Sphere, Stiefel, TangentBasis, TangentVector,
                               _Record, tangent_basis)
from gnewton.newton import (Fixed, IterationTrace, Jet2, PathDependent,
                            Random, RoundRobin, StepResult,
                            generalized_newton_step, pullback_jet,
                            run_iteration)
from gnewton.parametrizations import (QR, AuditReport, Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic, Stereographic)
from gnewton.rates import RateEstimate

PP = ParametrizationPair(Projection(), Projection())
FLAGS = {"identity": True, "dphi": True, "slope": True}


def _audit(**kw):
    args = dict(alpha_hat=1.0, beta_hat=0.5, fitted_slope=2.0,
                identity_residual=0.0, dphi_residual=1e-9, pass_flags=FLAGS,
                radii=(0.1, 0.01))
    args.update(kw)
    return AuditReport(**args)


def _rate(**kw):
    args = dict(K=3.0, kappa=0.5, window=(1, 4), fit_residual=0.0,
                n_points=3)
    args.update(kw)
    return RateEstimate(**args)


# each value class: a maker, and a maker of one with a field changed (None
# when the class has no fields)
VALUES = [
    (ManifoldDescriptor, lambda: ManifoldDescriptor(3),
     lambda: ManifoldDescriptor(4)),
    (Euclidean, lambda: Euclidean(6), lambda: Euclidean(5)),
    (Sphere, lambda: Sphere(6), lambda: Sphere(7)),
    (Stiefel, lambda: Stiefel(5, 2), lambda: Stiefel(5, 3)),
    (Grassmann, lambda: Grassmann(5, 2), lambda: Grassmann(6, 2)),
    (Fixed, lambda: Fixed(PP),
     lambda: Fixed(ParametrizationPair(QR(), QR()))),
    (RoundRobin, lambda: RoundRobin([PP]), lambda: RoundRobin([PP, PP])),
    (Random, lambda: Random([PP], 3), lambda: Random([PP], 4)),
    (PathDependent, lambda: PathDependent("distance-keyed", [PP]),
     lambda: PathDependent("alternate-on-repeat", [PP])),
    (Projection, Projection, None),
    (SphereGeodesic, SphereGeodesic, None),
    (QR, QR, None),
    (Custom1D, lambda: Custom1D((0.0, 1.0)), lambda: Custom1D((0.0, 2.0))),
    (ExampleBeta, lambda: ExampleBeta(0.5), lambda: ExampleBeta(-0.5)),
    (Recentred, lambda: Recentred(Projection(), 2),
     lambda: Recentred(SphereGeodesic(), 2)),
    (ParametrizationPair, lambda: ParametrizationPair(Projection(), QR()),
     lambda: ParametrizationPair(QR(), Projection())),
    (AuditReport, _audit, lambda: _audit(samples_dropped=1)),
    (RateEstimate, _rate, lambda: _rate(K=2.0)),
    (AbsPower, AbsPower, None),
    (ShiftedCubic, lambda: ShiftedCubic(0.25), lambda: ShiftedCubic(0.5)),
]


def _identities():
    """Each identity class: a maker of instances that share their fields."""
    m = Sphere(3)
    p = Point(m, np.array([0.0, 0.6, 0.8]))
    cols = tangent_basis(p).columns
    c = Quadratic(np.diag([1.0, 2.0, 3.0]))
    j = pullback_jet(c, PP, p)
    res = generalized_newton_step(c, PP, p)
    tr = run_iteration(c, Fixed(PP), p, 3, 1e-12)
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    return [
        (Quadratic, lambda: Quadratic(c.A, c.b)),
        (BrockettTrace, lambda: BrockettTrace(A, np.diag([2.0, 1.0]))),
        (GrassmannTrace, lambda: GrassmannTrace(A)),
        (Point, lambda: Point(m, p.ambient)),
        (TangentVector, lambda: TangentVector(p, cols[:, 0])),
        (TangentBasis, lambda: TangentBasis(p, cols)),
        (Jet2, lambda: Jet2(j.basis, j.value, j.gradient, j.hessian)),
        (StepResult, lambda: StepResult(res.next, res.step_norm,
                                        res.hessian, res.pair_used,
                                        res.base_value)),
        (IterationTrace, lambda: IterationTrace(
            tr.points, tr.step_norms, tr.cost_values, tr.termination,
            tr.pairs_used)),
        (Stereographic, lambda: Stereographic(np.array([0.0, 0.0, -1.0]))),
    ]


# an attribute of each record class, by class name: a field, or the class
# attribute `name` where it has no field
FIELD = {
    "ManifoldDescriptor": "n", "Euclidean": "n", "Sphere": "n",
    "Stiefel": "p", "Grassmann": "p", "Fixed": "pair", "RoundRobin": "pairs",
    "Random": "seed", "PathDependent": "rule", "Projection": "name",
    "SphereGeodesic": "name", "QR": "name", "Custom1D": "coeffs",
    "ExampleBeta": "beta", "Recentred": "base", "ParametrizationPair": "phi",
    "AuditReport": "pass_flags", "RateEstimate": "K", "AbsPower": "name",
    "ShiftedCubic": "z", "Quadratic": "A", "BrockettTrace": "N",
    "GrassmannTrace": "A", "Point": "ambient", "TangentVector": "base",
    "TangentBasis": "columns", "Jet2": "hessian", "StepResult": "next",
    "IterationTrace": "points", "Stereographic": "pole",
}


def test_every_record_is_frozen():
    makers = [(cls, make) for cls, make, _ in VALUES] + _identities()
    assert len(makers) == len(FIELD)
    for cls, make in makers:
        x = make()
        assert type(x) is cls
        name = FIELD[cls.__name__]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_value_records_compare_on_class_and_fields():
    assert Sphere(6) == Sphere(6) and hash(Sphere(6)) == hash(Sphere(6))
    assert Sphere(6) != Euclidean(6)
    assert Projection() == Projection()
    assert Projection() != QR() and Projection() != SphereGeodesic()
    for cls, make, other in VALUES:
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y), cls
        if other is not None:
            assert x != other(), cls


def test_identity_records_equal_only_themselves():
    for cls, make in _identities():
        x, y = make(), make()
        assert x == x and x != y, cls
        assert len({x, y}) == 2, cls


def test_audit_report_equality_ignores_pass_flags():
    x = _audit()
    y = _audit(pass_flags={"identity": False, "dphi": True, "slope": False})
    assert x == y and hash(x) == hash(y)
    assert x != _audit(radii=(0.1, 0.001))


def test_record_reprs():
    assert repr(_rate()) == ("RateEstimate(K=3.0, kappa=0.5, window=(1, 4), "
                             "fit_residual=0.0, n_points=3)")
    assert repr(_audit()) == (
        "AuditReport(alpha_hat=1.0, beta_hat=0.5, fitted_slope=2.0, "
        "identity_residual=0.0, dphi_residual=1e-09, "
        "pass_flags={'identity': True, 'dphi': True, 'slope': True}, "
        "samples_dropped=0, radii=(0.1, 0.01))")


def test_keyword_and_default_constructors():
    m = Stiefel(n=12, p=3)
    assert (m.n, m.p) == (12, 3) and Sphere(6).p == 1
    r = Recentred(base=Projection())
    assert r.base == Projection() and r.rotation_seed == 0
    assert Custom1D().coeffs == () and Custom1D(coeffs=[1, 2]).coeffs == (
        1.0, 2.0)
    a = AuditReport(alpha_hat=0.0, beta_hat=0.0, fitted_slope=2.0,
                    identity_residual=0.0, dphi_residual=0.0,
                    pass_flags=FLAGS)
    assert a.samples_dropped == 0 and a.radii == ()
    q = Quadratic(A=np.eye(2))
    assert np.array_equal(q.b, np.zeros(2)) and not q.b.flags.writeable
    assert PathDependent(rule="distance-keyed", pairs=[PP]).pairs == (PP,)


def _required(cls) -> list:
    """The fields that a constructor of cls cannot leave out: all but those
    with a default in `_defaults` or in the signature of its own
    `__init__`."""
    params = inspect.signature(cls).parameters
    return [f for f in cls._fields if f not in cls._defaults
            and (f not in params or params[f].default is params[f].empty)]


def test_every_record_binds_its_fields_in_one_place():
    """each record's dict holds its fields in `_fields` order; a missing,
    unknown, repeated or surplus argument is a TypeError, which the binder
    words with the class and its fields"""
    makers = [(cls, make) for cls, make, _ in VALUES] + _identities()
    for cls, make in makers:
        x = make()
        assert list(vars(x)) == list(cls._fields), cls
        fields = cls._fields
        args = [getattr(x, f) for f in fields]
        bad = [lambda: cls(*args, None),
               lambda: cls(*args, no_such_field=None)]
        if fields:
            bad.append(lambda: cls(*args, **{fields[0]: args[0]}))
        for f in _required(cls):
            bad.append(lambda f=f: cls(**{g: v for g, v in zip(fields, args)
                                          if g != f}))
        words = "^%s\\(%s\\) cannot bind " % (cls.__qualname__,
                                                ", ".join(fields))
        for call in bad:
            with pytest.raises(TypeError) as raised:
                call()
            if cls.__init__ is _Record.__init__:
                assert re.match(words, str(raised.value)), raised.value
    fields = AuditReport._fields
    x = _audit()
    a = AuditReport(*[getattr(x, f) for f in fields[:6]])
    assert (a.samples_dropped, a.radii) == (0, ())
    assert list(vars(a)) == list(fields)
    with pytest.raises(TypeError, match=r"0 positional and "
                       r"keywords \['alpha_hat', 'beta_hat', 'dphi_residual', "
                       r"'identity_residual'\]$"):
        AuditReport(alpha_hat=0.0, beta_hat=0.0, identity_residual=0.0,
                    dphi_residual=0.0)


def test_import_builds_no_dataclass_but_experiment():
    """every record but config.Experiment is a plain class: importing the
    CLI generates no dataclass code for them"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [q for q in env.get("PYTHONPATH", "").split(os.pathsep) if q])
    out = subprocess.run(
        [sys.executable, "-c",
         "import dataclasses, inspect, sys, gnewton.cli; "
         "print(sorted({c.__module__ + '.' + c.__qualname__ "
         "for name, mod in list(sys.modules.items()) "
         "if name == 'gnewton' or name.startswith('gnewton.') "
         "for c in vars(mod).values() "
         "if inspect.isclass(c) and dataclasses.is_dataclass(c)}))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['gnewton.config.Experiment']"
