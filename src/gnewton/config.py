"""Experiment configuration: JSON parsing, cross-validation, assembly.

A config is a single JSON document with a required "version": 1. Every
validation failure raises ConfigError with a message that names the
offending key, so batch runs fail loudly and specifically.
"""

import json
from dataclasses import dataclass
from functools import partial
from math import isfinite

import numpy as np

from . import costs as costs_mod
from . import newton as newton_mod
from . import parametrizations as par_mod
from .errors import ConfigError, InfeasiblePoint, ManifoldMismatch
from .manifolds import (Euclidean, Grassmann, ManifoldDescriptor, Point,
                        Sphere, Stiefel, project_to_manifold, random_point,
                        random_unit_tangent)
from .rates import DEFAULT_CEIL, DEFAULT_FLOOR
from .rng import SplitMix64

_TOP_KEYS = {"version", "manifold", "cost", "pairs", "selector", "x0",
             "max_iter", "tol", "rate_floor", "rate_ceil", "audit"}


@dataclass(frozen=True, eq=False)
class Experiment:
    config: dict
    manifold: ManifoldDescriptor
    cost: object
    pairs: tuple
    selector: object
    x0: Point
    truth: Point  # or None when the cost kind admits no closed-form truth
    max_iter: int
    tol: float
    rate_floor: float
    rate_ceil: float


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an int over 4300 digits
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def _typed(v, types) -> bool:
    # bools pass isinstance(int) checks; never what a config means here
    return isinstance(v, types) and not isinstance(v, bool)


def _number(v, key):
    """The one rule of a config number: an int or float, not a bool, within
    float range (a JSON integer may lie beyond it). -> v as a float, or None
    for the caller to report; ConfigError("key: ...") where v overflows"""
    if not _typed(v, (int, float)):
        return None
    try:
        return float(v)
    except OverflowError:
        raise ConfigError("%s: integer beyond float range" % key) from None


def _numbers(v, key) -> list:
    """The list v of config numbers (`_number`), as floats."""
    xs = [_number(x, key) for x in v] if isinstance(v, list) else [None]
    if None in xs:
        raise ConfigError("%s: expected a list of numbers" % key)
    return xs


def _need(cfg, key, types, where=""):
    """cfg[key], of one of `types`, or a `_number` where types is float."""
    name = where + key
    if key not in cfg:
        raise ConfigError("%s: missing" % name)
    v = cfg[key]
    x = _number(v, name) if types is float else v if _typed(v, types) else None
    if x is None:
        raise ConfigError("%s: wrong type %s" % (name, type(v).__name__))
    return x


def _parse_matrix(spec, key):
    if isinstance(spec, str):
        if not spec.startswith("diag:"):
            raise ConfigError("%s: string form must be \"diag:...\"" % key)
        try:
            d = [float(t) for t in spec[len("diag:"):].split(",")]
        except ValueError as exc:
            raise ConfigError("%s: bad diagonal entry" % key) from exc
        return np.diag(d)
    if isinstance(spec, list):
        if not (spec and all(isinstance(row, list) for row in spec)):
            raise ConfigError("%s: expected a list of rows" % key)
        A = [[_number(x, key) for x in row] for row in spec]
        if any(None in row for row in A) or len(set(map(len, A))) > 1:
            raise ConfigError("%s: not a numeric matrix" % key)
        return np.array(A)
    raise ConfigError("%s: expected matrix rows or \"diag:...\"" % key)


def _build(table, spec, key, *context):
    """The class in `table` whose name spec["kind"] gives, called with the
    constructor arguments its entry parses from spec (and the context)."""
    kind = _need(spec, "kind", str, key + ".")
    for cls, parse in table.items():
        if cls.name == kind:
            args = parse(spec, key, *context)  # its ConfigError names a key
            try:
                return cls(*args)
            except ValueError as exc:
                raise ConfigError("%s: %s" % (key, exc)) from exc
    raise ConfigError("%s.kind: unknown kind %r" % (key, kind))


def _manifold_args(cls, spec, key):
    """n, and p where cls takes it: p is required on Stiefel and Grassmann
    and refused on Euclidean space and the sphere; their ranges are the
    constructor's rules."""
    n = _need(spec, "n", int, key + ".")
    if not cls.takes_p:
        if "p" in spec:
            raise ConfigError("%s.p: not a parameter of %s" % (key, cls.name))
        return (n,)
    return n, _need(spec, "p", int, key + ".")


_MANIFOLDS = {cls: partial(_manifold_args, cls)
              for cls in (Euclidean, Sphere, Stiefel, Grassmann)}


def build_manifold(spec) -> ManifoldDescriptor:
    """The manifold of a config's "manifold" object; the CLI's truth spec
    is parsed through it too."""
    return _build(_MANIFOLDS, spec, "manifold")


def _matrix(spec, key):
    return _parse_matrix(_need(spec, key, (str, list), "cost."), "cost." + key)


def _quadratic_args(spec, key):
    A = _matrix(spec, "A")
    if "b" not in spec:
        return A, None
    return A, np.array(_numbers(_need(spec, "b", list, "cost."), "cost.b"))


# each configurable cost and the parse of its constructor arguments
_COSTS = {
    costs_mod.Quadratic: _quadratic_args,
    costs_mod.BrockettTrace: lambda spec, key: (_matrix(spec, "A"),
                                                _matrix(spec, "N")),
    costs_mod.GrassmannTrace: lambda spec, key: (_matrix(spec, "A"),),
    costs_mod.AbsPower: lambda spec, key: (),
    costs_mod.ShiftedCubic: lambda spec, key: (
        _need(spec, "z", float, "cost."),),
}


def _build_cost(cfg, m: ManifoldDescriptor):
    c = _build(_COSTS, _need(cfg, "cost", dict), "cost")
    if not c.valid_on(m):
        raise ConfigError("cost.kind: %s does not fit manifold %s(n=%d, p=%d)"
                          % (c.name, m.kind, m.n, m.p))
    return c


def _recentred_args(spec, key):
    base = _build(_KINDS, _need(spec, "base", dict, key + "."), key + ".base")
    seed = spec.get("rotation_seed", 0)
    if not _typed(seed, int):
        raise ConfigError("%s.rotation_seed: expected an integer" % key)
    return base, seed


# each configurable parametrisation kind and the parse of its constructor
# arguments
_KINDS = {
    par_mod.Projection: lambda spec, key: (),
    par_mod.SphereGeodesic: lambda spec, key: (),
    par_mod.QR: lambda spec, key: (),
    par_mod.Custom1D: lambda spec, key: (
        tuple(_numbers(spec.get("coeffs", []), key + ".coeffs")),),
    par_mod.ExampleBeta: lambda spec, key: (
        _need(spec, "beta", float, key + "."),),
    par_mod.Recentred: _recentred_args,
}


def _build_pairs(cfg, m: ManifoldDescriptor) -> tuple:
    specs = _need(cfg, "pairs", list)
    if not specs:
        raise ConfigError("pairs: must be non-empty")
    pairs = []
    for i, ps in enumerate(specs):
        key = "pairs[%d]" % i
        if not isinstance(ps, dict):
            raise ConfigError("%s: expected an object" % key)
        phi = _build(_KINDS, _need(ps, "phi", dict, key + "."), key + ".phi")
        psi = _build(_KINDS, _need(ps, "psi", dict, key + "."), key + ".psi")
        for role, kind in (("phi", phi), ("psi", psi)):
            if not kind.valid_on(m):
                raise ConfigError("%s.%s.kind: %s is not valid on %s"
                                  % (key, role, kind.name, m.kind))
        pairs.append(par_mod.ParametrizationPair(phi, psi))
    return tuple(pairs)


def _random_args(spec, key, pairs, seed_override):
    seed = _need(spec, "seed", int, key + ".")
    return pairs, seed if seed_override is None else seed_override


def _path_args(spec, key, pairs, seed_override):
    return _need(spec, "rule", str, key + "."), pairs


# each selector and the parse of its constructor arguments, given the pairs
# and the seed override
_SELECTORS = {
    newton_mod.Fixed: lambda spec, key, pairs, seed: (pairs[0],),
    newton_mod.RoundRobin: lambda spec, key, pairs, seed: (pairs,),
    newton_mod.Random: _random_args,
    newton_mod.PathDependent: _path_args,
}


def compute_truth(m: ManifoldDescriptor, cost):
    """Closed-form minimiser where the cost kind admits one, else None
    (see each cost's `truth`). Column signs are convention-fixed; callers
    comparing against a finished run should re-sign via match_truth_signs.
    """
    return cost.truth(m)


def match_truth_signs(truth: Point, final: Point) -> Point:
    """Resolve sign ambiguity in an eigenvector truth against an iterate.

    A Rayleigh minimiser is only defined up to sign, and each column of a
    Brockett minimiser independently so. Flip whatever brings truth onto the
    branch the iteration actually landed on; other manifolds are returned
    unchanged (the Grassmann distance is representative-independent).
    """
    return truth.manifold.align_signs(truth, final)


def near_truth_start(m: ManifoldDescriptor, truth: Point, delta: float,
                     seed: int) -> Point:
    """Truth perturbed along a seeded unit tangent direction by delta,
    projected back to the manifold."""
    d = random_unit_tangent(truth, SplitMix64(seed))
    return project_to_manifold(m, truth.ambient + delta * d)


def _build_x0(cfg, m, truth, seed_override) -> Point:
    spec = _need(cfg, "x0", (list, str))
    if isinstance(spec, list):
        xs = np.array(_numbers(spec, "x0"))
        try:
            return Point(m, xs)
        except ValueError as exc:
            raise ConfigError("x0: %s" % exc) from exc
    parts = spec.split(":")
    if parts[0] == "random":
        if len(parts) != 2:
            raise ConfigError("x0: expected \"random:SEED\"")
        try:
            seed = int(parts[1])
        except ValueError as exc:
            raise ConfigError("x0: bad seed %r" % parts[1]) from exc
        if seed_override is not None:
            seed = seed_override
        return random_point(m, seed)
    if parts[0] == "near-truth":
        if len(parts) not in (2, 3):
            raise ConfigError("x0: expected \"near-truth:DELTA[:SEED]\"")
        try:
            delta = float(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ConfigError("x0: bad near-truth parameters") from exc
        if not delta > 0:
            raise ConfigError("x0: near-truth delta must be positive")
        if not isfinite(delta):
            raise ConfigError("x0: near-truth delta must be finite")
        if seed_override is not None:
            seed = seed_override
        if truth is None:
            raise ConfigError("x0: near-truth needs a cost with closed-form "
                              "truth")
        try:
            # a delta so large that the projection overflows gives a point
            # that Point refuses; that refusal is the report, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                return near_truth_start(m, truth, delta, seed)
        except (ManifoldMismatch, InfeasiblePoint) as exc:
            raise ConfigError("x0: %s" % exc) from exc
    raise ConfigError("x0: unknown spec %r" % spec)


def _check_header(cfg: dict):
    """Unknown top-level keys and the version, for every config."""
    unknown = sorted(set(cfg) - _TOP_KEYS)
    if unknown:
        raise ConfigError("%s: unknown key" % unknown[0])
    version = _need(cfg, "version", int)
    if version != 1:
        raise ConfigError("version: expected 1, got %r" % (version,))


def build_experiment(cfg: dict, seed_override=None) -> Experiment:
    _check_header(cfg)
    m = build_manifold(_need(cfg, "manifold", dict))
    cost = _build_cost(cfg, m)
    pairs = _build_pairs(cfg, m)
    selector = _build(_SELECTORS, _need(cfg, "selector", dict), "selector",
                      pairs, seed_override)

    # their ranges are run_iteration's rules
    max_iter = _need(cfg, "max_iter", int)
    tol = _need(cfg, "tol", float)
    floor = _number(cfg.get("rate_floor", DEFAULT_FLOOR), "rate_floor")
    if floor is None:
        raise ConfigError("rate_floor: wrong type")
    ceil = _number(cfg.get("rate_ceil", DEFAULT_CEIL), "rate_ceil")
    if ceil is None:
        raise ConfigError("rate_ceil: wrong type")
    if not (0 <= floor < ceil):
        raise ConfigError("rate_floor: need 0 <= floor < ceil")

    truth = compute_truth(m, cost)
    x0 = _build_x0(cfg, m, truth, seed_override)

    return Experiment(config=cfg, manifold=m, cost=cost, pairs=pairs,
                      selector=selector, x0=x0, truth=truth,
                      max_iter=max_iter, tol=tol, rate_floor=floor,
                      rate_ceil=ceil)


def build_audit_setup(cfg: dict, seed_override=None):
    """Manifold, pairs and audit parameters for an audit-only config.

    Audit configs need version, manifold and pairs; cost/x0/selector keys
    from a full run config are tolerated and ignored, so the same file can
    drive both subcommands.
    """
    _check_header(cfg)
    m = build_manifold(_need(cfg, "manifold", dict))
    pairs = _build_pairs(cfg, m)
    return m, pairs, build_audit_params(cfg, seed_override)


def build_audit_params(cfg: dict, seed_override=None):
    """(sample_points, radii, seed) for an audit config; the count, and
    the radii's range, are audit_conditions' rules."""
    spec = cfg.get("audit", {})
    if not isinstance(spec, dict):
        raise ConfigError("audit: expected an object")
    points = spec.get("sample_points", 20)
    radii = _numbers(spec.get("radii", [1e-1, 1e-2, 1e-3]), "audit.radii")
    seed = spec.get("seed", 0)
    if not _typed(seed, int):
        raise ConfigError("audit.seed: expected an integer")
    if seed_override is not None:
        seed = seed_override
    return points, radii, seed
