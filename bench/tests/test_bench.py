"""Tests of the benchmark itself: deterministic workloads and gates that
count wrong results as failures.

    python3 -m pytest bench/tests
"""

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import hostenv  # noqa: E402
import workloads  # noqa: E402
from ops import CliBatch, Tally, solve_op  # noqa: E402
from tracing import Tracer, layer_metrics, replay  # noqa: E402

import gnewton as g  # noqa: E402


def _x0_seed(solve):
    return int(solve.config["x0"].rsplit(":", 1)[1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_a_function_of_the_seed(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)
    assert workloads.make(name, 7) != workloads.make(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_are_one_contiguous_range(name):
    wl = workloads.make(name, 3)
    x0 = [_x0_seed(s) for s in wl.solves]
    audit = [cfg["audit"]["seed"] for cfg in wl.audits]
    base = 3 * workloads.SEED_STRIDE
    assert x0 + audit == list(range(base, base + len(x0) + len(audit)))
    for s in wl.solves:
        if s.config["selector"]["kind"] == "random":
            assert s.config["selector"]["seed"] == _x0_seed(s)


def test_built_inputs_repeat_for_a_seed():
    wl = workloads.make("rate-study", 5)
    first, _ = workloads.build_inputs(wl)
    again, _ = workloads.build_inputs(wl)
    for a, b in zip(first, again):
        assert np.array_equal(a.x0.ambient, b.x0.ambient)


def test_unknown_workload_and_negative_seed_are_rejected():
    with pytest.raises(ValueError):
        workloads.make("no-such-workload", 1)
    with pytest.raises(ValueError):
        workloads.make("rate-study", -1)


@pytest.fixture(scope="module")
def solved():
    wl = workloads.make("cli-batch", 1)
    exp = workloads.build_inputs(wl)[0][0]
    trace = solve_op(wl.solves[0], exp, fit_rates=False)[0]
    return exp, trace


def _with_final(trace, final, termination=None):
    return g.IterationTrace(
        points=trace.points[:-1] + (final,), step_norms=trace.step_norms,
        cost_values=trace.cost_values, pairs_used=trace.pairs_used,
        termination=termination or trace.termination)


def test_solve_gate_passes_a_correct_solve(solved):
    exp, trace = solved
    assert gates.check_solve(exp, trace) is None


def test_solve_gate_counts_a_perturbed_iterate(solved):
    exp, trace = solved
    x = trace.points[-1]
    d = g.tangent_basis(x).columns[:, 0]
    moved = g.project_to_manifold(x.manifold, x.ambient + 1e-8 * d)
    assert gates.check_solve(exp, _with_final(trace, moved)) is not None


def test_solve_gate_counts_a_non_converged_run(solved):
    exp, trace = solved
    stopped = _with_final(trace, trace.points[-1], "MaxIterations")
    assert gates.check_solve(exp, stopped) is not None


def test_replay_matches_and_catches_a_perturbed_iterate(solved):
    exp, trace = solved
    tracer, counts = Tracer(), {"linalg.singular": 0}
    assert replay(exp, trace, tracer.span, counts) is None
    x = trace.points[-1]
    moved = g.Point(x.manifold, -x.ambient)
    assert replay(exp, _with_final(trace, moved), tracer.span, counts)


def test_tally_counts_failures():
    tally = Tally()
    tally.record("a", None)
    tally.record("b", "wrong")
    assert (tally.attempted, tally.failed, tally.reasons) == (2, 1, ["b: wrong"])


def test_cli_gates_count_non_zero_exit(tmp_path):
    assert gates.check_cli_run(3, tmp_path, np.zeros(6)) is not None
    assert gates.check_cli_audit(4, tmp_path) is not None
    assert gates.check_cli_rates(4, "", None) is not None
    assert gates.check_cli_run(0, tmp_path, np.zeros(6)) is not None  # no files


def test_rates_gate_compares_with_the_summary():
    payload = {"insufficient_data": False, "K": 2.9}
    text = json.dumps(payload)
    assert gates.check_cli_rates(0, text, payload) is None
    assert gates.check_cli_rates(0, text, dict(payload, K=3.0)) is not None
    assert gates.check_cli_rates(0, "not json", None) is not None


def test_repeat_gate_needs_identical_bytes():
    assert gates.check_repeat(b"a", b"a", "x") is None
    assert gates.check_repeat(b"a", b"b", "x") is not None


def test_cli_batch_gates_real_artifacts(tmp_path):
    wl = workloads.make("cli-batch", 1)
    ops = (workloads.CliOp("run", "proj"), workloads.CliOp("rates", "proj"),
           workloads.CliOp("audit", "proj"))
    experiments, _ = workloads.build_inputs(wl)
    cli = CliBatch(wl, ops, experiments, ROOT, os.environ, tmp_path / "work")
    try:
        tally = Tally()
        cli.run_pass(ops, tally)
        assert (tally.attempted, tally.failed) == (3, 0), tally.reasons
        cli.reference["proj"] = cli.reference["proj"] + 1e-9
        cli.first[("rates-proj", "stdout")] = b"{}"
        cli.run_pass(ops, tally)
        assert tally.failed == 2, tally.reasons
    finally:
        cli.close()


def test_layer_metrics_from_a_traced_solve(solved):
    exp, trace = solved
    tracer = Tracer()
    counts = {"passes": 1, "solves": 1, "newton.steps": 4,
              "linalg.singular": 0, "rates.insufficient": 0,
              "rates.pairs": 4, "rates.usable_pairs": 3,
              "parametrizations.apply_psi.guard_trips": 0,
              "audit.dropped": 0, "audit.samples": 60}
    for name in ("op", "config.build_experiment", "config.compute_truth",
                 "rng.gaussians", "rates.error_sequence",
                 "rates.estimate_rate", "parametrizations.audit_conditions",
                 "cli.run", "cli.audit", "cli.rates"):
        with tracer.span(name):
            pass
    tracer.op = "solve"
    with tracer.span("newton.run_iteration"):
        pass
    assert replay(exp, trace, tracer.span, counts) is None
    cli = type("Cli", (), {"artifact_bytes": 1})()
    metrics = layer_metrics(tracer, counts, cli,
                            {"gnewton": 0.4, "scipy.linalg": 0.3}, 4.0)
    assert metrics["newton.pullback_jet.calls"]["value"] == len(trace.step_norms)
    assert metrics["rates.usable_pairs_ratio"]["value"] == 0.75
    assert all(np.isfinite(m["value"]) for m in metrics.values())


def test_seed_range_is_checked():
    seeds = workloads._Seeds(0)
    for _ in range(workloads.SEED_STRIDE):
        seeds()
    with pytest.raises(ValueError):
        seeds()


def test_solve_gate_needs_a_truth(solved):
    exp, trace = solved
    no_truth = replace(exp, truth=None)
    assert gates.check_solve(no_truth, trace) is not None


def test_host_clock_scales_each_call_by_the_samples_around_it():
    clock = hostenv.HostClock(every_s=0.0)
    for _ in range(4):
        clock.tick()
    assert len(clock.samples) == 5
    clock.starts, clock.ends = [0.0, 2.0, 4.0], [1.0, 3.0, 5.0]
    clock.samples = [2.0, 4.0, 8.0]
    ref = hostenv.REF_PROBE_MS
    # a call between the first two samples is scaled by their mean
    assert clock.factor(1.5, 1.9) == pytest.approx(3.0 / ref)
    assert clock.scaled(1.5, 1.9) == pytest.approx(0.4 * ref / 3.0)
    # a call spanning the second sample loses the sample's second, and
    # each half is scaled by the samples at its ends
    assert clock.scaled(1.5, 3.5) == pytest.approx(ref * (0.5 / 3 + 0.5 / 6))
    # a call after the last sample is scaled by it
    assert clock.scaled(5.5, 6.0) == pytest.approx(0.5 * ref / 8.0)
    idle = hostenv.HostClock(every_s=3600.0)
    idle.tick()
    assert len(idle.samples) == 1


def test_host_clock_timer_samples_during_a_call():
    clock = hostenv.HostClock(every_s=0.02)
    with clock.timer():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(clock.samples) > 3
    probing = sum(e - s for s, e in zip(clock.starts, clock.ends)
                  if t0 <= s and e <= t1)
    assert probing > 0
    # at the usual speed throughout, only the time spent probing is cut
    clock.samples = [hostenv.REF_PROBE_MS] * len(clock.samples)
    assert clock.scaled(t0, t1) == pytest.approx(t1 - t0 - probing)


def test_summarise_keeps_each_call_median_over_passes():
    from run import summarise
    passes = [[("a", True, 0.0, 1.0), ("b", True, 1.0, 3.0),
               ("audit-0", None, 3.0, 4.0)],
              [("a", True, 0.0, 9.0), ("b", False, 1.0, 3.0),
               ("audit-0", None, 3.0, 4.0)],
              [("a", True, 0.0, 1.0), ("b", True, 1.0, 3.0),
               ("audit-0", None, 3.0, 4.0)]]
    got = summarise(passes, lambda t0, t1: t1 - t0)
    # medians a 1 s, b 2 s, audit 1 s; 5 of 6 ops passed
    assert got["ops_per_s"] == pytest.approx(5 / 6 * 2 / 4.0)
    assert got["op_ms_p50"] == pytest.approx(1500.0)
