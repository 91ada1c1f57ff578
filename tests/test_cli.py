import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnewton.cli import main
from gnewton.cli import _parse_truth_spec, _truth_spec_string
from gnewton.manifolds import euclidean, grassmann, random_point, sphere, stiefel

SPHERE_RUN = {
    "version": 1,
    "manifold": {"kind": "sphere", "n": 6},
    "cost": {"kind": "quadratic", "A": "diag:1,2,3,4,5,6"},
    "pairs": [{"phi": {"kind": "projection"}, "psi": {"kind": "projection"}}],
    "selector": {"kind": "fixed"},
    "x0": "near-truth:0.1:3",
    "max_iter": 15,
    "tol": 1e-12,
    "rate_floor": 1e-30,
    "rate_ceil": 0.5,
}

CUBIC_RUN = {
    "version": 1,
    "manifold": {"kind": "euclidean", "n": 1},
    "cost": {"kind": "shifted_cubic", "z": 0.0},
    "pairs": [{"phi": {"kind": "custom1d", "coeffs": [0.0, -1.0]},
               "psi": {"kind": "custom1d", "coeffs": [0.0, -1.0]}}],
    "selector": {"kind": "fixed"},
    "x0": [0.05],
    "max_iter": 6,
    "tol": 1e-25,
    "rate_floor": 1e-30,
    "rate_ceil": 0.5,
}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, cfg, sub="r", name="cfg.json"):
    path = _write(tmp_path, name, cfg)
    out = tmp_path / sub
    code = main(["run", path, "--out", str(out)])
    return code, out


def test_run_writes_artifacts(tmp_path):
    code, out = _run(tmp_path, SPHERE_RUN)
    assert code == 0
    assert (out / "trace.csv").is_file()
    assert (out / "summary.json").is_file()
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "Converged"
    assert s["iterations"] <= 15
    assert s["truth"]["distance"] <= 1e-12
    assert s["rate"]["insufficient_data"] is False
    assert s["rate"]["K"] >= 1.8
    assert s["artifacts"] == {"trace_csv": "trace.csv",
                              "summary_json": "summary.json"}


def test_run_deterministic_bytes(tmp_path):
    _, a = _run(tmp_path, SPHERE_RUN, "a")
    _, b = _run(tmp_path, SPHERE_RUN, "b")
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_trace_csv_shape(tmp_path):
    _, out = _run(tmp_path, SPHERE_RUN)
    lines = (out / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["iter", "step_norm", "cost", "error"]
    assert header[4:] == ["coord_%d" % i for i in range(6)]
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == ""  # no step into the start point
    s = json.loads((out / "summary.json").read_text())
    assert len(lines) - 2 == s["iterations"]


def test_cubic_rate_through_cli(tmp_path):
    code, out = _run(tmp_path, CUBIC_RUN)
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "Converged"
    assert 2.7 <= s["rate"]["K"] <= 3.3


def test_rates_round_trip(tmp_path, capsys):
    """feeding the trace back through `rates` reproduces the summary fit"""
    _, out = _run(tmp_path, SPHERE_RUN)
    s = json.loads((out / "summary.json").read_text())
    code = main(["rates", str(out / "trace.csv"),
                 "--truth", s["truth"]["spec"],
                 "--floor", "1e-30", "--ceil", "0.5"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["K"] == s["rate"]["K"]
    assert got["kappa"] == s["rate"]["kappa"]
    assert got["window"] == s["rate"]["window"]


def test_rates_without_truth(tmp_path, capsys):
    # the final iterate stands in for the limit, so the run must be long
    # enough to spare its last two points
    _, out = _run(tmp_path, CUBIC_RUN)
    code = main(["rates", str(out / "trace.csv"), "--truth", "none",
                 "--floor", "1e-30", "--ceil", "0.5"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["insufficient_data"] is False
    assert got["K"] >= 2.5


def test_rates_insufficient_is_not_an_error(tmp_path, capsys):
    p = tmp_path / "short.csv"
    p.write_text("iter,step_norm,cost,error,coord_0\n"
                 "0,,1.0,0.5,0.5\n1,0.4,0.5,0.1,0.1\n2,0.09,0.2,0.01,0.01\n")
    code = main(["rates", str(p), "--truth", "none"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["insufficient_data"] is True
    assert "reason" in got


def test_rates_overflowing_kappa_is_insufficient(tmp_path, capsys):
    # a one-coordinate trace whose distances to the truth 0 fit K ~ 1000:
    # kappa overflows, which is no fit rather than a traceback
    errs = [1e-10 * (1 + 1e-14 * 1000 ** k) for k in range(5)]
    p = tmp_path / "t.csv"
    p.write_text("iter,step_norm,cost,error,coord_0\n"
                 + "".join("%d,,0.0,%r,%r\n" % (k, e, e)
                           for k, e in enumerate(errs)))
    code = main(["rates", str(p), "--truth", "euclidean:1:0.0",
                 "--floor", "1e-30", "--ceil", "0.5"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["insufficient_data"] is True
    assert "overflows" in got["reason"]


def test_rates_stalled_trace_is_insufficient(tmp_path, capsys):
    # every distance to the truth 0 is 1e-5: a fit of K = nan before, now
    # no fit, with the reason
    p = tmp_path / "t.csv"
    p.write_text("iter,step_norm,cost,error,coord_0\n"
                 + "".join("%d,,0.0,1e-05,1e-05\n" % k for k in range(6)))
    code = main(["rates", str(p), "--truth", "euclidean:1:0.0"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["insufficient_data"] is True
    assert "no slope" in got["reason"]


def test_rates_malformed_csv(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("time,value\n0,1\n")
    code = main(["rates", str(p), "--truth", "none"])
    assert code == 4
    p2 = tmp_path / "bad2.csv"
    p2.write_text("iter,step_norm,cost,error,coord_0\n0,,1.0,,0.5\n"
                  "7,0.1,0.5,,0.4\n")  # iter jumps
    assert main(["rates", str(p2), "--truth", "none"]) == 4
    capsys.readouterr()


def test_rates_truth_dimension_mismatch(tmp_path, capsys):
    _, out = _run(tmp_path, SPHERE_RUN)
    code = main(["rates", str(out / "trace.csv"),
                 "--truth", "sphere:3:1.0,0.0,0.0"])
    assert code == 4
    capsys.readouterr()


def test_rates_truth_spec_dims_follow_the_manifold(tmp_path, capsys):
    """p is given exactly on Stiefel and Grassmann: `gnewton rates` refuses
    a sphere spec with p and a matrix spec without one, and every spec
    `gnewton run` writes parses back to its point."""
    cfg = dict(SPHERE_RUN, manifold={"kind": "sphere", "n": 3},
               cost={"kind": "quadratic", "A": "diag:1,2,3"})
    _, out = _run(tmp_path, cfg)
    trace = str(out / "trace.csv")
    for spec in ("sphere:3,1:1.0,0.0,0.0", "stiefel:3:1.0,0.0,0.0",
                 "grassmann:3:1.0,0.0,0.0", "euclidean:3,1:1.0,0.0,0.0"):
        assert main(["rates", trace, "--truth", spec]) == 4, spec
        assert "truth spec" in capsys.readouterr().err
    assert main(["rates", trace, "--truth", "sphere:3:1.0,0.0,0.0"]) == 0
    capsys.readouterr()
    for m in (euclidean(3), sphere(3), stiefel(4, 2), grassmann(5, 2)):
        pt = random_point(m, 7)
        back = _parse_truth_spec(_truth_spec_string(pt))
        assert back.manifold == m
        assert np.array_equal(back.ambient, pt.ambient)


def test_exit_code_singular_hessian(tmp_path):
    cfg = {
        "version": 1,
        "manifold": {"kind": "euclidean", "n": 1},
        "cost": {"kind": "quadratic", "A": [[2.0]]},
        "pairs": [{"phi": {"kind": "example_beta", "beta": -0.5},
                   "psi": {"kind": "example_beta", "beta": -0.5}}],
        "selector": {"kind": "fixed"},
        "x0": [1.0],
        "max_iter": 5,
        "tol": 1e-12,
    }
    code, out = _run(tmp_path, cfg)
    assert code == 2
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "SingularHessian"


def test_exit_code_max_iterations(tmp_path):
    cfg = {
        "version": 1,
        "manifold": {"kind": "euclidean", "n": 1},
        "cost": {"kind": "abs_power"},
        "pairs": [{"phi": {"kind": "projection"},
                   "psi": {"kind": "projection"}}],
        "selector": {"kind": "fixed"},
        "x0": [0.5],
        "max_iter": 3,
        "tol": 1e-30,
    }
    code, out = _run(tmp_path, cfg)
    assert code == 3
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "MaxIterations"
    assert s["iterations"] == 3


def test_exit_code_left_validity(tmp_path):
    cfg = {
        "version": 1,
        "manifold": {"kind": "euclidean", "n": 1},
        "cost": {"kind": "abs_power"},
        "pairs": [{"phi": {"kind": "projection"},
                   "psi": {"kind": "projection"}}],
        "selector": {"kind": "fixed"},
        "x0": [0.0],  # the kink: no second jet exists
        "max_iter": 5,
        "tol": 1e-12,
    }
    code, out = _run(tmp_path, cfg)
    assert code == 5
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "LeftValidityRegion"


def test_exit_code_bad_config(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"version": 1, "manifold": {"kind": "stiefel",
                                              "n": 2, "p": 5}})
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.strip()


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()


def test_usage_error_exits_4(capsys):
    assert main(["run"]) == 4  # missing config and --out
    assert main(["frobnicate"]) == 4
    assert main([]) == 4
    capsys.readouterr()


def test_multi_config_layout(tmp_path):
    a = _write(tmp_path, "alpha.json", SPHERE_RUN)
    b = _write(tmp_path, "beta.json", CUBIC_RUN)
    out = tmp_path / "batch"
    code = main(["run", a, b, "--out", str(out)])
    assert code == 0
    for stem in ("alpha", "beta"):
        assert (out / stem / "trace.csv").is_file()
        assert (out / stem / "summary.json").is_file()


def test_multi_config_exit_is_worst(tmp_path):
    a = _write(tmp_path, "alpha.json", SPHERE_RUN)
    stall = dict(CUBIC_RUN)
    stall["max_iter"] = 2
    stall["tol"] = 1e-30
    b = _write(tmp_path, "beta.json", stall)
    assert main(["run", a, b, "--out", str(tmp_path / "batch")]) == 3


def test_duplicate_stems_rejected(tmp_path, capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    a = _write(tmp_path, "same.json", SPHERE_RUN)
    b = str(sub / "same.json")
    (sub / "same.json").write_text(json.dumps(CUBIC_RUN))
    assert main(["run", a, b, "--out", str(tmp_path / "batch")]) == 4
    capsys.readouterr()


def test_parallel_jobs_equivalent(tmp_path):
    a = _write(tmp_path, "alpha.json", SPHERE_RUN)
    b = _write(tmp_path, "beta.json", CUBIC_RUN)
    s1 = tmp_path / "serial"
    s2 = tmp_path / "parallel"
    assert main(["run", a, b, "--out", str(s1)]) == 0
    assert main(["run", a, b, "--out", str(s2), "--jobs", "2"]) == 0
    for stem in ("alpha", "beta"):
        for f in ("trace.csv", "summary.json"):
            assert ((s1 / stem / f).read_bytes() ==
                    (s2 / stem / f).read_bytes())


def test_seed_override_changes_start(tmp_path):
    path = _write(tmp_path, "cfg.json", SPHERE_RUN)
    base = tmp_path / "base"
    over = tmp_path / "over"
    assert main(["run", path, "--out", str(base)]) == 0
    assert main(["run", path, "--out", str(over),
                 "--seed-override", "8"]) == 0
    t1 = (base / "trace.csv").read_text().splitlines()[1]
    t2 = (over / "trace.csv").read_text().splitlines()[1]
    assert t1 != t2


def test_audit_command(tmp_path):
    cfg = {"version": 1, "manifold": {"kind": "sphere", "n": 4},
           "pairs": [{"phi": {"kind": "projection"},
                      "psi": {"kind": "projection"}}],
           "audit": {"sample_points": 10, "radii": [1e-1, 1e-2, 1e-3],
                     "seed": 7}}
    path = _write(tmp_path, "audit.json", cfg)
    out = tmp_path / "audit_out"
    assert main(["audit", path, "--out", str(out)]) == 0
    rep = json.loads((out / "audit.json").read_text())
    assert rep["pair"] == "projection+projection"
    assert rep["pass"] == {"identity": True, "dphi": True, "slope": True}
    assert 1.9 <= rep["fitted_slope"] <= 2.1
    assert 0.4 <= rep["beta_hat"] <= 0.6
    assert rep["identity_residual"] <= 1e-12


def test_audit_rejects_single_and_duplicate_radii(tmp_path, capsys):
    for i, radii in enumerate(([1e-1], [1e-1, 1e-1])):
        cfg = {"version": 1, "manifold": {"kind": "sphere", "n": 6},
               "pairs": [{"phi": {"kind": "projection"},
                          "psi": {"kind": "projection"}}],
               "audit": {"sample_points": 20, "radii": radii, "seed": 3}}
        path = _write(tmp_path, "audit%d.json" % i, cfg)
        out = tmp_path / ("audit_out%d" % i)
        assert main(["audit", path, "--out", str(out)]) == 4
        assert "audit.radii" in capsys.readouterr().err
        assert not (out / "audit.json").exists()


def test_import_leaves_out_the_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [q for q in env.get("PYTHONPATH", "").split(os.pathsep) if q])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gnewton.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_audit_flags_broken_pair(tmp_path):
    cfg = {"version": 1, "manifold": {"kind": "euclidean", "n": 1},
           "pairs": [{"phi": {"kind": "custom1d", "coeffs": [0.1]},
                      "psi": {"kind": "custom1d", "coeffs": [0.1]}}]}
    path = _write(tmp_path, "audit.json", cfg)
    out = tmp_path / "audit_out"
    assert main(["audit", path, "--out", str(out)]) == 0
    rep = json.loads((out / "audit.json").read_text())
    assert rep["pass"]["dphi"] is False


def test_summary_json_is_stable_under_reload(tmp_path):
    """summary floats survive a json round trip bit-for-bit"""
    _, out = _run(tmp_path, SPHERE_RUN)
    raw = (out / "summary.json").read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw

def test_non_finite_cost_matrix_is_a_config_error(tmp_path, capsys):
    """NaN and infinite entries of cost.A are rejected at the config, with
    exit 4, instead of running into LeftValidityRegion"""
    cases = ["diag:1,2,nan,4,5,6", "diag:1,2,3,inf,5,6"]
    for bad in (float("nan"), float("inf"), float("-inf")):
        A = np.diag(np.arange(1.0, 7.0)).tolist()
        A[2][4] = A[4][2] = bad
        cases.append(A)
        A = np.diag(np.arange(1.0, 7.0)).tolist()
        A[3][3] = bad
        cases.append(A)
    for i, A in enumerate(cases):
        cfg = dict(SPHERE_RUN, cost={"kind": "quadratic", "A": A})
        code, out = _run(tmp_path, cfg, "o%d" % i, "nan%d.json" % i)
        assert code == 4, A
        assert "cost: A must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
    # the square and symmetric wording of the config stays as it was
    for A, msg in (([[1.0, 2.0, 3.0]], "cost: A must be square"),
                   ([[1.0, 2.0], [0.0, 1.0]], "cost: A must be symmetric")):
        cfg = dict(SPHERE_RUN, manifold={"kind": "sphere", "n": 2},
                   cost={"kind": "quadratic", "A": A})
        assert _run(tmp_path, cfg, "sq", "sq.json")[0] == 4
        assert msg in capsys.readouterr().err


ZERO_DIM = ({"kind": "grassmann", "n": 3, "p": 3}, {"kind": "sphere", "n": 1},
            {"kind": "stiefel", "n": 1, "p": 1})


def test_audit_refuses_zero_dimensional_manifolds(tmp_path):
    """no unit tangent direction exists to sample; each case runs in a
    subprocess with a timeout, so a sampling loop that never ends fails
    the test instead of hanging it"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [q for q in env.get("PYTHONPATH", "").split(os.pathsep) if q])
    for i, manifold in enumerate(ZERO_DIM):
        cfg = {"version": 1, "manifold": manifold,
               "pairs": [{"phi": {"kind": "projection"},
                          "psi": {"kind": "projection"}}],
               "audit": {"sample_points": 3, "radii": [1e-1, 1e-2],
                         "seed": 0}}
        path = _write(tmp_path, "zero%d.json" % i, cfg)
        out = tmp_path / ("zero_out%d" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "gnewton.cli", "audit", path,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4, (manifold, proc.stderr)
        assert "audit: " in proc.stderr
        assert "zero-dimensional" in proc.stderr
        assert not (out / "audit.json").exists()


def test_near_truth_refuses_zero_dimensional_manifold(tmp_path, capsys):
    cfg = dict(SPHERE_RUN, manifold={"kind": "sphere", "n": 1},
               cost={"kind": "quadratic", "A": "diag:2"})
    code, out = _run(tmp_path, cfg)
    assert code == 4
    err = capsys.readouterr().err
    assert "x0: " in err and "zero-dimensional" in err
    assert not (out / "summary.json").exists()


NAN, INF = float("nan"), float("inf")
LINE_RUN = dict(CUBIC_RUN, cost={"kind": "shifted_cubic", "z": 0.3})
PROJ_PAIR = {"kind": "projection"}


@pytest.mark.parametrize("cfg, msg", [
    (dict(SPHERE_RUN, manifold={"kind": "euclidean", "n": 3},
          cost={"kind": "quadratic", "A": "diag:1,2,3", "b": [NAN, 0.0, 0.0]},
          x0=[1.0, 1.0, 1.0]), "cost: b must be finite"),
    (dict(LINE_RUN, cost={"kind": "shifted_cubic", "z": NAN}),
     "cost: z must be finite"),
    (dict(LINE_RUN, cost={"kind": "shifted_cubic", "z": INF}),
     "cost: z must be finite"),
    (dict(SPHERE_RUN, x0="near-truth:inf:3"),
     "x0: near-truth delta must be finite"),
    (dict(LINE_RUN, pairs=[{"phi": {"kind": "example_beta", "beta": NAN},
                            "psi": PROJ_PAIR}]),
     "pairs[0].phi: beta must be finite"),
    (dict(LINE_RUN, pairs=[{"phi": {"kind": "custom1d", "coeffs": [0.0, NAN]},
                            "psi": PROJ_PAIR}]),
     "pairs[0].phi: coeffs must be finite"),
    (dict(SPHERE_RUN, manifold={"kind": "stiefel", "n": 3, "p": 2},
          cost={"kind": "brockett", "A": "diag:1,2,3", "N": "diag:1,nan"},
          x0="random:1"), "cost: N must be finite"),
], ids=["quadratic-b-nan", "cubic-z-nan", "cubic-z-inf", "near-truth-inf",
        "example-beta-nan", "custom1d-coeff-nan", "brockett-n-nan"])
def test_non_finite_config_scalar_is_a_config_error(tmp_path, capsys, cfg, msg):
    """a NaN or infinite scalar is refused with exit 4 and a message that
    names its key, not run into an InfeasiblePoint traceback or a run"""
    code, out = _run(tmp_path, cfg)
    assert code == 4
    assert msg in capsys.readouterr().err
    assert not (out / "summary.json").exists()
