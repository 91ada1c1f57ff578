import json

import numpy as np
import pytest

from gnewton.cli import main
from gnewton.config import (build_audit_setup, build_experiment, compute_truth,
                            load_config, match_truth_signs, near_truth_start)
from gnewton.costs import BrockettTrace, Quadratic, value
from gnewton.errors import ConfigError
from gnewton.manifolds import (Point, distance, euclidean, grassmann,
                               project_to_manifold, sphere, stiefel)
from gnewton.newton import Fixed, PathDependent, Random, RoundRobin


def _base(**over):
    cfg = {
        "version": 1,
        "manifold": {"kind": "sphere", "n": 3},
        "cost": {"kind": "quadratic", "A": "diag:1,2,3"},
        "pairs": [{"phi": {"kind": "projection"},
                   "psi": {"kind": "projection"}}],
        "selector": {"kind": "fixed"},
        "x0": "random:5",
        "max_iter": 30,
        "tol": 1e-12,
    }
    cfg.update(over)
    return cfg


def _build(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return build_experiment(load_config(str(p)))


def test_round_trip_basic(tmp_path):
    exp = _build(tmp_path, _base())
    assert exp.manifold.kind == "sphere" and exp.manifold.n == 3
    assert isinstance(exp.cost, Quadratic)
    assert np.array_equal(exp.cost.A, np.diag([1.0, 2.0, 3.0]))
    assert isinstance(exp.selector, Fixed)
    assert exp.max_iter == 30 and exp.tol == 1e-12
    assert exp.x0.manifold == exp.manifold
    np.testing.assert_allclose(np.linalg.norm(exp.x0.ambient), 1.0, atol=1e-12)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_version_required(tmp_path):
    cfg = _base()
    del cfg["version"]
    with pytest.raises(ConfigError, match="version"):
        _build(tmp_path, cfg)
    with pytest.raises(ConfigError, match="version"):
        _build(tmp_path, _base(version=2))


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="banana"):
        _build(tmp_path, _base(banana=1))


def test_wrong_type_is_named(tmp_path):
    with pytest.raises(ConfigError, match="max_iter"):
        _build(tmp_path, _base(max_iter="lots"))
    # bool is not an int here even though Python disagrees
    with pytest.raises(ConfigError, match="max_iter"):
        _build(tmp_path, _base(max_iter=True))


def test_matrix_formats(tmp_path):
    cfg = _base(cost={"kind": "quadratic",
                      "A": [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]})
    exp = _build(tmp_path, cfg)
    assert np.array_equal(exp.cost.A, np.diag([2.0, 3.0, 4.0]))


def test_quadratic_b_defaults_zero(tmp_path):
    cfg = _base(manifold={"kind": "euclidean", "n": 2},
                cost={"kind": "quadratic", "A": "diag:2,4", "b": [1.0, -1.0]},
                x0=[0.3, 0.4])
    exp = _build(tmp_path, cfg)
    assert np.array_equal(exp.cost.b, [1.0, -1.0])
    exp2 = _build(tmp_path, _base(manifold={"kind": "euclidean", "n": 2},
                                  cost={"kind": "quadratic", "A": "diag:2,4"},
                                  x0=[0.3, 0.4]))
    assert np.array_equal(exp2.cost.b, [0.0, 0.0])


def test_manifold_validation(tmp_path):
    with pytest.raises(ConfigError, match="manifold"):
        _build(tmp_path, _base(manifold={"kind": "torus", "n": 3}))
    with pytest.raises(ConfigError, match="p"):
        _build(tmp_path, _base(manifold={"kind": "stiefel", "n": 3, "p": 5},
                               cost={"kind": "brockett", "A": "diag:1,2,3",
                                     "N": "diag:1,2"}))
    with pytest.raises(ConfigError, match="p"):
        _build(tmp_path, _base(manifold={"kind": "sphere", "n": 3, "p": 1}))


def test_cost_manifold_compatibility(tmp_path):
    # brockett needs a stiefel manifold
    with pytest.raises(ConfigError, match="cost"):
        _build(tmp_path, _base(cost={"kind": "brockett", "A": "diag:1,2,3",
                                     "N": "diag:1,2"}))
    # dimension mismatch
    with pytest.raises(ConfigError, match="cost"):
        _build(tmp_path, _base(cost={"kind": "quadratic", "A": "diag:1,2"}))
    # abs_power lives on the line only
    with pytest.raises(ConfigError, match="cost"):
        _build(tmp_path, _base(cost={"kind": "abs_power"}))


def test_pair_validity_checked(tmp_path):
    cfg = _base(pairs=[{"phi": {"kind": "sphere_geodesic"},
                        "psi": {"kind": "projection"}}])
    exp = _build(tmp_path, cfg)  # geodesic phi is fine on the sphere
    assert exp.pairs[0].phi.name == "sphere_geodesic"
    bad = _base(manifold={"kind": "euclidean", "n": 2},
                cost={"kind": "quadratic", "A": "diag:1,2"},
                x0=[1.0, 0.0],
                pairs=[{"phi": {"kind": "sphere_geodesic"},
                        "psi": {"kind": "projection"}}])
    with pytest.raises(ConfigError, match="phi"):
        _build(tmp_path, bad)


def test_custom1d_and_example_beta_pairs(tmp_path):
    cfg = _base(manifold={"kind": "euclidean", "n": 1},
                cost={"kind": "shifted_cubic", "z": 0.0},
                x0=[0.05],
                pairs=[{"phi": {"kind": "custom1d", "coeffs": [0.0, -1.0]},
                        "psi": {"kind": "custom1d", "coeffs": [0.0, -1.0]}}])
    exp = _build(tmp_path, cfg)
    assert exp.pairs[0].phi.name == "custom1d"
    cfg2 = _base(manifold={"kind": "euclidean", "n": 1},
                 cost={"kind": "quadratic", "A": [[2.0]]},
                 x0=[1.0],
                 pairs=[{"phi": {"kind": "example_beta", "beta": 1.0},
                         "psi": {"kind": "example_beta", "beta": 1.0}}])
    exp2 = _build(tmp_path, cfg2)
    assert exp2.pairs[0].phi.name == "example_beta"


def test_selectors_built(tmp_path):
    pairs = [{"phi": {"kind": "projection"}, "psi": {"kind": "projection"}},
             {"phi": {"kind": "sphere_geodesic"},
              "psi": {"kind": "sphere_geodesic"}}]
    exp = _build(tmp_path, _base(pairs=pairs,
                                 selector={"kind": "round_robin"}))
    assert isinstance(exp.selector, RoundRobin)
    exp = _build(tmp_path, _base(pairs=pairs,
                                 selector={"kind": "random", "seed": 3}))
    assert isinstance(exp.selector, Random)
    exp = _build(tmp_path, _base(pairs=pairs,
                                 selector={"kind": "path",
                                           "rule": "distance-keyed"}))
    assert isinstance(exp.selector, PathDependent)
    with pytest.raises(ConfigError, match="selector"):
        _build(tmp_path, _base(selector={"kind": "greedy"}))
    with pytest.raises(ConfigError, match="rule"):
        _build(tmp_path, _base(selector={"kind": "path", "rule": "nope"}))


def test_x0_specs(tmp_path):
    exp = _build(tmp_path, _base(x0=[1.0, 0.0, 0.0]))
    assert np.array_equal(exp.x0.ambient, [1.0, 0.0, 0.0])
    a = _build(tmp_path, _base(x0="random:9"))
    b = _build(tmp_path, _base(x0="random:9"))
    assert np.array_equal(a.x0.ambient, b.x0.ambient)
    c = _build(tmp_path, _base(x0="random:10"))
    assert not np.array_equal(a.x0.ambient, c.x0.ambient)
    nt = _build(tmp_path, _base(x0="near-truth:0.1:4"))
    assert abs(distance(nt.x0, nt.truth) - 0.1) <= 0.02
    with pytest.raises(ConfigError, match="x0"):
        _build(tmp_path, _base(x0="nearby"))
    with pytest.raises(ConfigError, match="x0"):
        _build(tmp_path, _base(x0=[1.0, 0.0]))  # wrong length
    # infeasible literal
    with pytest.raises(ConfigError, match="x0"):
        _build(tmp_path, _base(x0=[2.0, 0.0, 0.0]))


def test_near_truth_requires_truth(tmp_path):
    cfg = _base(manifold={"kind": "euclidean", "n": 1},
                cost={"kind": "abs_power"}, x0="near-truth:0.1")
    cfg["cost"] = {"kind": "quadratic", "A": [[0.0]]}  # singular: no truth
    with pytest.raises(ConfigError, match="truth"):
        _build(tmp_path, cfg)


def test_near_truth_refuses_sphere_quadratic_with_linear_term(tmp_path):
    """On the sphere a linear term b leaves no closed-form truth, so a
    near-truth start is refused instead of being drawn around A's
    eigenvector, which is no critical point."""
    cost = {"kind": "quadratic", "A": "diag:1,2,3", "b": [0.0, 0.5, 0.0]}
    with pytest.raises(ConfigError, match="near-truth needs"):
        _build(tmp_path, _base(cost=cost, x0="near-truth:0.1:1"))
    exp = _build(tmp_path, _base(cost=cost))
    assert exp.truth is None


def test_seed_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_base(x0="random:5")))
    a = build_experiment(load_config(str(p)))
    b = build_experiment(load_config(str(p)), seed_override=5)
    c = build_experiment(load_config(str(p)), seed_override=77)
    assert np.array_equal(a.x0.ambient, b.x0.ambient)
    assert not np.array_equal(a.x0.ambient, c.x0.ambient)
    # also replaces a random selector's seed
    p2 = tmp_path / "cfg2.json"
    pairs = [{"phi": {"kind": "projection"}, "psi": {"kind": "projection"}},
             {"phi": {"kind": "sphere_geodesic"},
              "psi": {"kind": "sphere_geodesic"}}]
    p2.write_text(json.dumps(_base(pairs=pairs,
                                   selector={"kind": "random", "seed": 1})))
    d = build_experiment(load_config(str(p2)), seed_override=42)
    assert isinstance(d.selector, Random) and d.selector.seed == 42


def test_truth_sphere_rayleigh(tmp_path):
    exp = _build(tmp_path, _base())
    assert np.allclose(exp.truth.ambient, [1.0, 0.0, 0.0], atol=1e-12)


def test_truth_brockett_column_order():
    m = stiefel(6, 2)
    c = BrockettTrace(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.diag([1.0, 2.0]))
    t = compute_truth(m, c)
    X = t.as_matrix()
    # N = diag(1,2) weights the second column more: it takes the smaller
    # eigenvector
    assert np.allclose(np.abs(X[:, 0]), np.eye(6)[:, 1], atol=1e-12)
    assert np.allclose(np.abs(X[:, 1]), np.eye(6)[:, 0], atol=1e-12)
    assert abs(value(c, t) - 4.0) <= 1e-12


def test_truth_quadratic_euclidean():
    m = euclidean(2)
    t = compute_truth(m, Quadratic(np.diag([2.0, 4.0]), np.array([-2.0, -4.0])))
    assert np.allclose(t.ambient, [1.0, 1.0], atol=1e-12)
    assert compute_truth(m, Quadratic(np.zeros((2, 2)))) is None


def test_truth_grassmann():
    m = grassmann(5, 2)
    t = compute_truth(m, __import__("gnewton").GrassmannTrace(
        np.diag([1.0, 2.0, 3.0, 4.0, 5.0])))
    got = t.as_matrix()
    want = np.eye(5)[:, :2]
    assert distance(t, Point(m, want.flatten(order="F"))) <= 1e-12
    assert got.shape == (5, 2)


def test_match_truth_signs_sphere():
    m = sphere(3)
    t = Point(m, np.eye(3)[:, 0])
    flipped = match_truth_signs(t, Point(m, -np.eye(3)[:, 0]))
    assert np.array_equal(flipped.ambient, -t.ambient)
    same = match_truth_signs(t, Point(m, np.array([0.9, 0.1, 0.0]) /
                                      np.linalg.norm([0.9, 0.1, 0.0])))
    assert same is t


def test_match_truth_signs_stiefel():
    m = stiefel(4, 2)
    T = np.eye(4)[:, :2]
    F = T.copy()
    F[:, 1] = -F[:, 1]
    out = match_truth_signs(Point(m, T.flatten(order="F")),
                            Point(m, F.flatten(order="F")))
    assert np.array_equal(out.as_matrix(), F)


def test_near_truth_start_distance():
    m = sphere(6)
    t = Point(m, np.eye(6)[:, 0])
    for seed in range(8):
        p = near_truth_start(m, t, 0.1, seed)
        assert abs(distance(p, t) - 0.1) <= 5e-3
    a = near_truth_start(m, t, 0.1, 3)
    b = near_truth_start(m, t, 0.1, 3)
    assert np.array_equal(a.ambient, b.ambient)


def test_audit_setup_tolerates_run_keys(tmp_path):
    cfg = _base()  # full run config including cost/x0/selector
    cfg["audit"] = {"sample_points": 5, "radii": [1e-1, 1e-2], "seed": 3}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    m, pairs, (points, radii, seed) = build_audit_setup(load_config(str(p)))
    assert m.kind == "sphere"
    assert len(pairs) == 1
    assert points == 5
    assert radii == [1e-1, 1e-2]
    assert seed == 3


def test_audit_defaults(tmp_path):
    cfg = {"version": 1, "manifold": {"kind": "sphere", "n": 3},
           "pairs": [{"phi": {"kind": "projection"},
                      "psi": {"kind": "projection"}}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    m, pairs, (points, radii, seed) = build_audit_setup(load_config(str(p)))
    assert points == 20
    assert radii == [1e-1, 1e-2, 1e-3]
    assert seed == 0
    _, _, (_, _, over) = build_audit_setup(load_config(str(p)), seed_override=11)
    assert over == 11


def test_audit_params_validation(tmp_path, capsys):
    """config checks the JSON types; the ranges are audit_conditions'
    rules, which `gnewton audit` reports with exit 4"""
    cfg = _base()
    cfg["audit"] = {"radii": ["big", "small"]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="radii"):
        build_audit_setup(load_config(str(p)))
    out = str(tmp_path / "out")
    cfg["audit"] = {"sample_points": 0}
    p.write_text(json.dumps(cfg))
    assert main(["audit", str(p), "--out", out]) == 4
    assert "sample_points" in capsys.readouterr().err
    for radii in ([], [1e-1], [1e-1, 1e-1], [1e-2, 1e-1]):
        cfg["audit"] = {"radii": radii}
        p.write_text(json.dumps(cfg))
        assert main(["audit", str(p), "--out", out]) == 4
        assert "strictly descending" in capsys.readouterr().err
    for radii in ([float("nan"), 1e-2], [1e-1, float("nan")],
                  [float("inf"), 1e-2]):
        cfg["audit"] = {"radii": radii}
        p.write_text(json.dumps(cfg))
        assert main(["audit", str(p), "--out", out]) == 4
        assert "audit: sample_radii must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_rails_forwarded(tmp_path):
    exp = _build(tmp_path, _base(rate_floor=1e-30, rate_ceil=0.5))
    assert exp.rate_floor == 1e-30 and exp.rate_ceil == 0.5
    exp = _build(tmp_path, _base())
    assert exp.rate_floor == 1e-12 and exp.rate_ceil == 1e-1