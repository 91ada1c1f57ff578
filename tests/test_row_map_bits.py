"""Each shipped kind's one-row map, pinned to recorded bits.

`row_map_bits.json` holds, for every shipped kind on sphere(6),
Stiefel(5, 2), Grassmann(6, 2) and the line, at point seeds 0-2: the
point p, a unit tangent direction u at p, and phi_p(t u) for t = 1e-3,
1e-2, 1e-1 and 1, each entry as `float.hex()`. The inputs are recorded
too, so the test pins the maps alone, not the sampling that drew them.
The other map tests compare a kind's stacked path with its one-row path;
a rewrite that moved the bits of both at once would pass them, and fails
here. The bits hold on one platform only (ROADMAP aim 3): another numpy,
BLAS build or CPU may round a dot product, a matmul or a QR differently.
So the file records the platform it was made on, and elsewhere each value
is checked within TOL of its record instead, and a skipped test says so.

Record again only for a change that moves a kind's bits on purpose:
`PYTHONPATH=src python tests/test_row_map_bits.py > tests/row_map_bits.json`.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gnewton.manifolds import (Point, TangentVector, euclidean, grassmann,
                               random_point, random_unit_tangent, sphere,
                               stiefel)
from gnewton.parametrizations import (QR, Custom1D, ExampleBeta,
                                      ParametrizationPair, Projection,
                                      Recentred, SphereGeodesic,
                                      Stereographic, apply_phi, apply_psi)
from gnewton.rng import SplitMix64

BITS = Path(__file__).resolve().with_name("row_map_bits.json")
SEEDS = range(3)
STEPS = (1e-3, 1e-2, 1e-1, 1.0)
TOL = 1e-12  # relative to the row's largest entry, off the platform


def _cases():
    """{case id: (kind, manifold)} for every shipped kind on every one of
    the four manifolds it is valid on"""
    m = {"sphere6": sphere(6), "stiefel5x2": stiefel(5, 2),
         "grassmann6x2": grassmann(6, 2), "line": euclidean(1)}
    kinds = {"projection": Projection(), "sphere_geodesic": SphereGeodesic(),
             "qr": QR(), "custom1d": Custom1D((0.0, -1.0, 0.5)),
             "example_beta": ExampleBeta(1.0),
             "recentred_projection": Recentred(Projection(), 3),
             "recentred_geodesic": Recentred(SphereGeodesic(), 3),
             "stereographic": Stereographic(-np.eye(6)[0])}
    return {"%s-%s" % (k, name): (kind, man)
            for k, kind in kinds.items() for name, man in m.items()
            if kind.valid_on(man)}


def _platform() -> dict:
    """What decides the bits: numpy, its BLAS build and the SIMD
    extensions found on this CPU, by which OpenBLAS picks its kernels
    ({} on a numpy without the dict form of show_config)"""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        return {}
    return {"numpy": np.__version__,
            "blas": "%s %s" % (blas["name"], blas["version"]), "simd": simd}


def _hex(x) -> list:
    return [float(v).hex() for v in x]


def _unhex(h) -> np.ndarray:
    return np.array([float.fromhex(v) for v in h])


def _record() -> dict:
    out = {"platform": _platform(), "maps": {}}
    for case, (kind, m) in _cases().items():
        pair = ParametrizationPair(kind, kind)
        rows = []
        for seed in SEEDS:
            p = random_point(m, seed)
            u = random_unit_tangent(p, SplitMix64(seed))
            rows.append({"p": _hex(p.ambient), "u": _hex(u), "maps": [
                _hex(apply_phi(pair, TangentVector(p, t * u)).ambient)
                for t in STEPS]})
        out["maps"][case] = rows
    return out


def _recorded() -> dict:
    return json.loads(BITS.read_text(encoding="utf-8"))


def test_the_record_covers_every_case():
    assert sorted(_recorded()["maps"]) == sorted(_cases())
    assert len(_cases()) == 13


def test_the_maps_are_checked_bit_for_bit_here():
    """Skipped, with the reason printed, where the platform differs from
    the record's: there the maps below are held within TOL only, and a
    pass is not a bit-for-bit pass"""
    recorded, here = _recorded()["platform"], _platform()
    differ = sorted(k for k in recorded if recorded[k] != here.get(k))
    if differ:
        pytest.skip("%s differ from the row-map record's: maps checked "
                    "within %g only" % (", ".join(differ), TOL))


@pytest.mark.parametrize("case", sorted(_cases()))
def test_one_row_map_has_the_recorded_bits(case):
    """apply_phi and apply_psi (both through the kind's `_at` on one row)
    give the recorded bits of phi_p(t u), every seed and step, on the
    platform of the record; elsewhere they agree within TOL"""
    kind, m = _cases()[case]
    pair = ParametrizationPair(kind, kind)
    recorded = _recorded()
    exact = recorded["platform"] == _platform()
    for seed, row in zip(SEEDS, recorded["maps"][case]):
        p = Point(m, _unhex(row["p"]))
        u = _unhex(row["u"])
        for t, want in zip(STEPS, row["maps"]):
            v = TangentVector(p, t * u)
            for got in (apply_phi(pair, v).ambient, apply_psi(pair, v).ambient):
                if exact:
                    assert _hex(got) == want, (seed, t)
                else:
                    w = _unhex(want)
                    assert (np.abs(got - w).max()
                            <= TOL * max(1.0, np.abs(w).max())), (seed, t)


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
