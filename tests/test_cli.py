import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnewton.cli import main
from gnewton.cli import _parse_truth_spec, _read_trace_csv, _truth_spec_string
from gnewton.config import build_audit_setup, build_experiment
from gnewton.errors import ConfigError
from gnewton.manifolds import (Sphere, Stiefel, euclidean, grassmann,
                               random_point, sphere, stiefel)
from gnewton.newton import PathDependent
from gnewton.parametrizations import ParametrizationPair, Projection

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


# every start seed of SPHERE_RUN that the pooled rate reads: none skipped
POOLED_SEEDS = range(10)


def test_run_writes_artifacts(tmp_path, capsys):
    code, out = _run(tmp_path, SPHERE_RUN)
    assert code == 0
    assert (out / "trace.csv").is_file()
    assert (out / "summary.json").is_file()
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "Converged"
    assert s["iterations"] <= 15
    assert s["truth"]["distance"] <= 1e-12
    # one cubic trace from 0.1 holds two rungs above the rounding level
    # 8 eps |x*| (the third, 2.1e-25, is rounding noise): no fit of its own
    assert s["rate"]["insufficient_data"] is True
    assert "rounding level 1.78e-15" in s["rate"]["reason"]
    assert s["artifacts"] == {"trace_csv": "trace.csv",
                              "summary_json": "summary.json"}
    # `gnewton rates` pools SPHERE_RUN's traces over a declared seed range,
    # every one of them, under one --truth: the rate from resolvable rungs
    traces, specs = [], set()
    for seed in POOLED_SEEDS:
        run = tmp_path / ("s%d" % seed)
        assert main(["run", str(tmp_path / "cfg.json"), "--out", str(run),
                     "--seed-override", str(seed)]) == 0
        specs.add(json.loads((run / "summary.json").read_text())
                  ["truth"]["spec"])
        traces.append(str(run / "trace.csv"))
    assert len(specs) == 1
    assert main(["rates", *traces, "--truth", specs.pop(),
                 "--floor", "1e-30", "--ceil", "0.5"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["insufficient_data"] is False
    assert got["K"] >= 2.5
    assert got["n_points"] == 2 * len(POOLED_SEEDS)


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
    assert json.loads(capsys.readouterr().out) == s["rate"]


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


def test_diverging_run_prints_no_warning(tmp_path, capsys):
    """x^2 from a start where the example_beta pair diverges: the iterates
    overflow on their way out, and the run ends LeftValidityRegion with
    exit 5 and nothing on stderr"""
    cfg = {
        "version": 1,
        "manifold": {"kind": "euclidean", "n": 1},
        "cost": {"kind": "quadratic", "A": [[2.0]]},
        "pairs": [{"phi": {"kind": "example_beta", "beta": -0.5},
                   "psi": {"kind": "example_beta", "beta": -0.5}}],
        "selector": {"kind": "fixed"},
        "x0": [-0.00547782865381088],
        "max_iter": 50,
        "tol": 1e-12,
    }
    code, out = _run(tmp_path, cfg)
    assert code == 5
    assert capsys.readouterr().err == ""
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "LeftValidityRegion"


def test_rates_on_a_diverged_trace_prints_no_warning(tmp_path, capsys):
    """the diverging run's trace, iterates up to about 1e282, measured
    against its truth: the distances overflow, and `gnewton rates` reports
    insufficient data with exit 0 and nothing on stderr"""
    cfg = dict(CUBIC_RUN, cost={"kind": "quadratic", "A": [[2.0]]},
               pairs=[{"phi": {"kind": "example_beta", "beta": -0.5},
                       "psi": {"kind": "example_beta", "beta": -0.5}}],
               x0=[-0.00547782865381088], max_iter=50, tol=1e-12)
    code, out = _run(tmp_path, cfg)
    assert code == 5
    capsys.readouterr()
    assert main(["rates", str(out / "trace.csv"),
                 "--truth", "euclidean:1:0.0"]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert json.loads(got.out)["insufficient_data"] is True


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


@pytest.mark.parametrize("command", ["run", "audit"])
def test_out_beneath_a_file_exits_4(tmp_path, capsys, command):
    """an --out that lies beneath a regular file is a rejected input: exit
    4 with the OSError after the config's path, and nothing on stdout"""
    path = _write(tmp_path, "cfg.json", SPHERE_RUN)
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / "afile" / "x")
    assert main([command, path, "--out", out]) == 4
    got = capsys.readouterr()
    assert got.err.startswith("error: %s: [Errno %d] "
                              % (path, errno.ENOTDIR)), got.err
    assert got.out == ""


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
        assert "sample_radii" in capsys.readouterr().err
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


def test_run_on_zero_dimensional_manifold_exits_singular(tmp_path):
    """from an explicit x0 the run starts, and its 0 x 0 Hessian ends it
    SingularHessian, exit 2"""
    cfg = dict(SPHERE_RUN, manifold={"kind": "sphere", "n": 1},
               cost={"kind": "quadratic", "A": "diag:2"}, x0=[1.0])
    code, out = _run(tmp_path, cfg)
    assert code == 2
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "SingularHessian"


@pytest.mark.parametrize("manifold, cost", [
    ({"kind": "stiefel", "n": 1, "p": 1},
     {"kind": "brockett", "A": "diag:2", "N": "diag:1"}),
    ({"kind": "grassmann", "n": 1, "p": 1},
     {"kind": "grassmann_trace", "A": "diag:2"})],
    ids=["stiefel-1-1", "grassmann-1-1"])
def test_run_on_a_one_by_one_frame_exits_singular(tmp_path, manifold, cost):
    """a 1 x 1 frame is zero-dimensional too: its run ends SingularHessian,
    exit 2, on Stiefel and on Grassmann alike"""
    cfg = dict(SPHERE_RUN, manifold=manifold, cost=cost, x0=[1.0])
    code, out = _run(tmp_path, cfg)
    assert code == 2
    s = json.loads((out / "summary.json").read_text())
    assert s["termination"] == "SingularHessian"


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


BIG = 10 ** 400  # a JSON integer beyond float range
EUCLID_RUN = dict(SPHERE_RUN, manifold={"kind": "euclidean", "n": 3},
                  cost={"kind": "quadratic", "A": "diag:1,2,3"},
                  x0=[1.0, 1.0, 1.0])


def _line_pair(phi):
    return dict(LINE_RUN, pairs=[{"phi": phi, "psi": PROJ_PAIR}])


@pytest.mark.parametrize("command, cfg, key", [
    ("run", _line_pair({"kind": "custom1d", "coeffs": ["0.0", True]}),
     "pairs[0].phi.coeffs"),
    ("run", _line_pair({"kind": "custom1d", "coeffs": [None]}),
     "pairs[0].phi.coeffs"),
    ("run", _line_pair({"kind": "custom1d", "coeffs": [[1]]}),
     "pairs[0].phi.coeffs"),
    ("run", dict(EUCLID_RUN, cost={"kind": "quadratic", "A": "diag:1,2,3",
                                   "b": [True, "0", 0]}), "cost.b"),
    ("run", dict(SPHERE_RUN, cost={"kind": "quadratic", "A": [
        [1, 0, 0, 0, 0, 0], [0, True, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0],
        [0, 0, 0, 4, 0, 0], [0, 0, 0, 0, 5, 0], [0, 0, 0, 0, 0, 6]]}),
     "cost.A"),
    ("run", dict(SPHERE_RUN, manifold={"kind": "stiefel", "n": 3, "p": 2},
                 cost={"kind": "brockett", "A": "diag:1,2,3",
                       "N": [["1", 0], [0, 2]]}, x0="random:1"), "cost.N"),
    ("run", dict(EUCLID_RUN, x0=[True, 0, 0]), "x0"),
    ("run", dict(LINE_RUN, cost={"kind": "shifted_cubic", "z": BIG}),
     "cost.z"),
    ("run", _line_pair({"kind": "example_beta", "beta": BIG}),
     "pairs[0].phi.beta"),
    ("run", dict(SPHERE_RUN, tol=BIG), "tol"),
    ("run", dict(SPHERE_RUN, rate_floor=BIG), "rate_floor"),
    ("run", dict(SPHERE_RUN, rate_ceil=BIG), "rate_ceil"),
    ("run", dict(EUCLID_RUN, x0=[BIG, 0, 0]), "x0"),
    ("audit", dict(SPHERE_RUN, audit={"radii": [BIG, 0.1]}), "audit.radii"),
], ids=["coeffs-str-bool", "coeffs-null", "coeffs-nested", "b-bool-str",
        "a-bool", "n-str", "x0-bool", "z-big", "beta-big", "tol-big",
        "floor-big", "ceil-big", "x0-big", "radii-big"])
def test_config_numbers_follow_one_rule(tmp_path, capsys, command, cfg, key):
    """a config number is an int or float, not a bool, within float range,
    as a scalar and as a list entry: anything else is a ConfigError that
    starts with the key and exit 4, not a run, a bool read as 1 or a
    TypeError or OverflowError traceback"""
    build = build_experiment if command == "run" else build_audit_setup
    with pytest.raises(ConfigError) as raised:
        build(json.loads(json.dumps(cfg)))
    assert str(raised.value).startswith(key + ": ")
    assert not str(raised.value).startswith(key + ": " + key)
    out = tmp_path / "r"
    assert main([command, _write(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert str(raised.value) in err and "Traceback" not in err
    assert not out.exists()


def test_integer_over_the_digit_limit_is_a_config_error(tmp_path, capsys):
    """json refuses a 5,000-digit integer with a ValueError that is no
    JSONDecodeError: exit 4 from run and audit, not a traceback"""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SPHERE_RUN).replace(
        '"max_iter": 15', '"max_iter": 1' + "0" * 4999))
    for command in ("run", "audit"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config is not valid JSON: " in err and "Traceback" not in err
        assert not out.exists()


def test_infinite_tol_is_a_config_error(tmp_path, capsys):
    """JSON 1e999 reads as inf: refused with exit 4 and a message that names
    tol, not run to a one-step Converged with "tol": null"""
    text = json.dumps(dict(SPHERE_RUN, x0="random:5", tol=1.0))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"tol": 1.0', '"tol": 1e999'))
    out = tmp_path / "r"
    assert main(["run", str(path), "--out", str(out)]) == 4
    assert "tol: must be finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_near_truth_start_that_overflows_is_a_config_error(tmp_path, capsys):
    """a near-truth start whose sum overflows is no point: on the line,
    1.5e308 plus delta 1e308 is inf, so exit 4 with an x0 message, not a
    traceback. A finite start far out projects: the sphere scales a row
    whose squared norm overflows, and a frame's SVD factor scales its
    matrix, so 1e155 and 1e300 start on both and run"""
    line = dict(SPHERE_RUN, manifold={"kind": "euclidean", "n": 1},
                cost={"kind": "quadratic", "A": [[1.0]], "b": [1.5e308]},
                x0="near-truth:1e308:3")
    code, out = _run(tmp_path, line)
    assert code == 4
    assert "x0: non-finite ambient coordinates" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    frame = dict(SPHERE_RUN, manifold={"kind": "stiefel", "n": 6, "p": 2},
                 cost={"kind": "brockett", "A": "diag:1,2,3,4,5,6",
                       "N": "diag:2,1"})
    for run in (frame, SPHERE_RUN):
        for delta in ("1e155", "1e300"):
            code, _ = _run(tmp_path, dict(run, x0="near-truth:%s:3" % delta),
                           sub="ok-%s-%s" % (run["manifold"]["kind"], delta))
            assert code == 0


PATH_PAIRS = (ParametrizationPair(Projection(), Projection()),)


@pytest.mark.parametrize("over, msg, constructor", [
    (dict(manifold={"kind": "sphere", "n": 0}),
     "manifold: need n >= 1, got n=0", lambda: Sphere(0)),
    (dict(manifold={"kind": "stiefel", "n": 3, "p": 5}),
     "manifold: need 1 <= p <= n, got n=3 p=5", lambda: Stiefel(3, 5)),
    (dict(manifold={"kind": "stiefel", "n": 3, "p": 0}),
     "manifold: need 1 <= p <= n, got n=3 p=0", lambda: Stiefel(3, 0)),
    (dict(selector={"kind": "path", "rule": "nope"}),
     "selector: unknown path rule 'nope'",
     lambda: PathDependent("nope", PATH_PAIRS)),
], ids=["sphere-n-0", "stiefel-p-over-n", "stiefel-p-0", "path-rule-nope"])
def test_constructor_rules_are_config_errors(tmp_path, capsys, over, msg,
                                             constructor):
    """the range rules belong to the constructors: a config that breaks one
    is a ConfigError, its key and then the constructor's own wording (n = 0
    is refused for n, not for a p the config never gave), and `gnewton run`
    exits 4 with it"""
    with pytest.raises(ValueError) as ref:
        constructor()
    assert msg.split(": ", 1)[1] == str(ref.value)
    cfg = dict(SPHERE_RUN, **over)
    with pytest.raises(ConfigError) as got:
        build_experiment(cfg)
    assert str(got.value) == msg
    code, out = _run(tmp_path, cfg)
    assert code == 4
    assert capsys.readouterr().err.endswith(": %s\n" % msg)
    assert not (out / "summary.json").exists()


def test_malformed_trace_csv_is_a_config_error(tmp_path, capsys):
    """a trace CSV that breaks the schema raises ConfigError, and
    `gnewton rates` exits 4 with the "trace CSV" message"""
    p = tmp_path / "bad.csv"
    p.write_text("iter,step_norm,cost,error,coord_0\n0,,1.0,,0.5\n"
                 "7,0.1,0.5,,0.4\n")
    with pytest.raises(ConfigError,
                       match=r"^trace CSV row 2: iter 7 out of sequence$"):
        _read_trace_csv(str(p))
    assert main(["rates", str(p), "--truth", "none"]) == 4
    assert capsys.readouterr().err == \
        "error: trace CSV row 2: iter 7 out of sequence\n"


ONE_POINT_TRACE = "iter,step_norm,cost,error,coord_0\n0,,1.0,,0.5\n"


@pytest.mark.parametrize("argv, cfg, err", [
    (["run", "{cfg}", "--out", "{out}", "--jobs", "0"], SPHERE_RUN,
     "error: --jobs: must be >= 1\n"),
    (["run", "{cfg}", "{dup}", "--out", "{out}"], SPHERE_RUN,
     "error: duplicate config stem 'cfg'; outputs would collide\n"),
    (["run", "{cfg}", "--out", "{out}"], dict(SPHERE_RUN, max_iter=0),
     "error: {cfg}: max_iter: must be >= 1\n"),
    (["run", "{cfg}", "--out", "{out}"], dict(SPHERE_RUN, tol=-1),
     "error: {cfg}: tol: must be positive\n"),
    (["run", "{cfg}", "--out", "{out}"],
     dict(SPHERE_RUN, rate_floor=0.5, rate_ceil=0.5),
     "error: {cfg}: rate_floor: need 0 <= floor < ceil\n"),
    (["audit", "{cfg}", "--out", "{out}"],
     dict(SPHERE_RUN, audit={"radii": [0.1, 1e-7]}),
     "error: {cfg}: audit: smallest radius must be >= 1e-6\n"),
    (["audit", "{cfg}", "--out", "{out}"],
     dict(SPHERE_RUN, audit={"radii": [0.1, -1]}),
     "error: {cfg}: audit: sample_radii must be positive\n"),
    (["audit", "{cfg}", "--out", "{out}"],
     dict(SPHERE_RUN, manifold={"kind": "sphere", "n": 1}),
     "error: {cfg}: audit: sphere(n=1, p=1) is zero-dimensional: no unit "
     "tangent direction\n"),
    (["rates", "{trace}", "--truth", "none", "--floor", "1", "--ceil", "0.5"],
     None, "error: --floor/--ceil: need 0 <= floor < ceil\n"),
    (["rates", "{trace}", "--truth", "euclidean:1"], None,
     'error: truth spec: expected "none" or KIND:DIMS:COORDS\n'),
    (["rates", "{trace}", "--truth", "euclidean:x:0.0"], None,
     "error: truth spec: invalid literal for int() with base 10: 'x'\n"),
    (["rates", "{trace}", "--truth", "euclidean:1,1,1:0.0"], None,
     "error: truth spec: dims must be n or n,p\n"),
    (["rates", "{bad}", "--truth", "none"], None,
     "error: trace CSV: 'utf-8' codec can't decode byte 0xff in position 37: "
     "invalid start byte\n"),
], ids=["jobs-0", "duplicate-stem", "max-iter-0", "tol-negative",
        "floor-not-below-ceil", "radius-below-1e-6", "radius-negative",
        "audit-zero-dimensional", "rates-floor-not-below-ceil",
        "truth-two-parts", "truth-dims-not-int", "truth-three-dims",
        "rates-trace-not-utf8"])
def test_every_refusal_exits_4_with_its_message(tmp_path, capsys, argv, cfg,
                                                err):
    """each refusal, the front end's and the library's, exits 4 with its
    one message on stderr, prints nothing else and makes no output
    directory: every check runs before a step, a sample or a write"""
    (tmp_path / "sub").mkdir()
    names = {"cfg": _write(tmp_path, "cfg.json", cfg),
             "dup": _write(tmp_path / "sub", "cfg.json", cfg),
             "trace": str(tmp_path / "trace.csv"),
             "bad": str(tmp_path / "bad.csv"),
             "out": str(tmp_path / "out")}
    (tmp_path / "trace.csv").write_text(ONE_POINT_TRACE)
    (tmp_path / "bad.csv").write_bytes(
        b"iter,step_norm,cost,error,coord_0\n0,,\xff\xfe,,1.0\n")
    assert main([a.format(**names) for a in argv]) == 4
    got = capsys.readouterr()
    assert (got.err, got.out) == (err.format(**names), "")
    assert not (tmp_path / "out").exists()
