"""gnewton benchmark: time to solution, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload rate-study --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``solve-ladder``, ``rate-study``,
``cli-batch``. One process runs one op at a time (a closed loop with one
client) with BLAS threads pinned to 1. An op is one solve on the library
workloads and one CLI subprocess on ``cli-batch``. Passes over the
workload's ops repeat until ``--seconds`` have elapsed and at least
``MIN_PASSES`` are done; a started pass is always finished, so every run
measures whole passes.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median time of fresh interpreters that import gnewton
  and build the workload's inputs (setup_probe.py);
- ``ops_per_s``: correct ops per second: each call of a pass keeps its
  median time over the passes, and the throughput is the share of ops
  that passed times the ops of a pass over the sum of those medians
  (audits count in the time, not as ops);
- ``op_ms_p50``: the median of the ops' median latencies (``op_ms_p90``,
  taken the same way, is printed and recorded as a diagnostic);
- ``ok_frac``: share of gated calls that passed (1 - fail_frac);
- ``peak_rss_mb``: peak resident memory of the process running the ops
  (the CLI subprocesses on ``cli-batch``).

The timings are reported at the usual host speed. A shared host flips
between speed states, often within a second, so every timed call is
scaled by a probe that does not use gnewton, against the probe's time in
the usual state. Library calls use the in-process probe
``hostenv.probe_ms``, sampled every 0.1 s by an interval timer, also in
the middle of a call; subprocesses (CLI calls and set-up) use a spawned
interpreter that imports numpy (``hostenv.spawn_probe_ms``), timed just
before and just after each. The wall-clock figures are printed and
recorded as ``wall.*``, and the median slow-down as ``host.slow_factor``.

``--trace 1`` is the separate traced run (tracing.py) that gives the
per-layer metrics. Every op is gated (gates.py); failures are counted, never
retried. Lines before the last print every metric with its unit, the
verdict and an environment stamp; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record, and the spans of a traced run, go to ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from functools import partial
from pathlib import Path
from time import perf_counter

import hostenv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
# each call's median over the passes then outvotes one slowed pass
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _spawn_clock(env):
    return hostenv.HostClock(partial(hostenv.spawn_probe_ms, ROOT, env),
                             hostenv.REF_SPAWN_MS, every_s=0.0)


def _setup_seconds(wl):
    """Median set-up time of ``SETUP_REPS`` fresh interpreters, scaled to
    the usual host speed by spawn probes around each, and the wall-clock
    median."""
    clock = _spawn_clock(os.environ)
    spans = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), wl.name,
             str(wl.seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        spans.append((t0, perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        clock.sample()
    return (statistics.median(clock.scaled(*span) for span in spans),
            statistics.median(t1 - t0 for t0, t1 in spans))


def _done(t_start, seconds, passes):
    return perf_counter() - t_start >= seconds and len(passes) >= MIN_PASSES


def _measure_library(wl, experiments, audits, seconds, tally, clock):
    from ops import solve_op

    # first calls pay lazy imports and cold caches; users pay them once
    solve_op(wl.solves[0], experiments[0], wl.fit_rates)
    clock.sample()
    passes = []
    t_start = perf_counter()
    with clock.timer():
        while not _done(t_start, seconds, passes):
            passes.append(_library_pass(wl, experiments, audits, tally))
    clock.sample()
    return passes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _library_pass(wl, experiments, audits, tally):
    from gnewton import audit_conditions
    import gates
    from ops import describe, solve_op

    calls = []
    for solve, exp in zip(wl.solves, experiments):
        t0 = perf_counter()
        try:
            trace = solve_op(solve, exp, wl.fit_rates)[0]
            reason = None
        except Exception as exc:  # a raising solve is a failed op
            reason = describe(exc)
        t1 = perf_counter()
        reason = reason or gates.check_solve(exp, trace)
        tally.record(solve.name, reason)
        calls.append((solve.name, reason is None, t0, t1))
    for i, (m, pairs, (points, radii, seed)) in enumerate(audits):
        t0 = perf_counter()
        try:
            report = audit_conditions(pairs[0], m, points, radii, seed)
            reason = None
        except Exception as exc:  # a raising audit is a failure
            reason = describe(exc)
        t1 = perf_counter()
        tally.record("audit", reason or gates.check_audit(report))
        # audits take time in a pass but are not ops
        calls.append(("audit-%d" % i, None, t0, t1))
    return calls


def _measure_cli(wl, cli, seconds, tally, clock):
    from ops import Tally
    cli.run_pass(wl.cli_ops[:1], Tally())  # warm the file cache
    clock.tick()
    passes = []
    t_start = perf_counter()
    while not _done(t_start, seconds, passes):
        passes.append([(op.name, ok, t0, t1) for op, ok, t0, t1
                       in cli.run_pass(wl.cli_ops, tally, between=clock.tick)])
    clock.sample()
    return passes, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def summarise(passes, seconds):
    """``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` of the timed calls of
    all passes; ``seconds(start, end)`` gives one call's time. Each call
    of a pass (an op, or an audit, whose ok is None) keeps its median time
    over the passes. Throughput is the share of ops that passed their gate
    times the ops of a pass over the sum of those medians; the latency
    quantiles are taken over the ops' medians. A pass that met a slow
    spell of the host so moves neither."""
    times, ops, ok, attempted = defaultdict(list), set(), 0, 0
    for calls in passes:
        for name, passed, t0, t1 in calls:
            times[name].append(seconds(t0, t1))
            if passed is not None:
                ops.add(name)
                attempted += 1
                ok += passed
    typical = {name: statistics.median(v) for name, v in times.items()}
    op_ms = [typical[name] * 1e3 for name in ops]
    return {
        "ops_per_s": ok / attempted * len(ops) / sum(typical.values()),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10,
                                          method="inclusive")[-1],
    }


def end_to_end(wl, experiments, audits, cli, seconds, tally):
    """End-to-end metrics at the usual host speed (see the module
    docstring), with the wall-clock figures kept as ``wall.*``."""
    if wl.cli_ops:
        clock = _spawn_clock(cli.env)
        passes, rss_kb = _measure_cli(wl, cli, seconds, tally, clock)
    else:
        clock = hostenv.HostClock()
        passes, rss_kb = _measure_library(wl, experiments, audits, seconds,
                                          tally, clock)
    setup_s, wall_setup_s = _setup_seconds(wl)
    scaled = summarise(passes, clock.scaled)
    wall = summarise(passes, lambda t0, t1: t1 - t0)
    wall["setup_s"] = wall_setup_s
    calls = [call for p in passes for call in p]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {
        # a diagnostic: on rate-study the 90th percentile falls at the
        # edge of the QR-heavy solves, whose number there depends on the
        # random selector's draws, so it moves with the seed by up to 40%
        "op_ms_p90": scaled["op_ms_p90"],
        "passes": len(passes),
        "op_samples": sum(ok is not None for _, ok, _, _ in calls),
        "wall_s": sum(t1 - t0 for _, _, t0, t1 in calls),
        "fail_frac": tally.failed / tally.attempted,
        "host.ref_ms": statistics.median(clock.samples),
        "host.slow_factor": statistics.median(
            clock.factor(t0, t1) for _, _, t0, t1 in calls),
        "host.probes": len(clock.samples),
    }
    extra.update(("wall." + k, v) for k, v in wall.items())
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            extra)


def main(argv=None):
    hostenv.pin_threads()  # before anything imports numpy
    args = _parse_args(argv)
    if not (SRC / "gnewton" / "__init__.py").is_file():
        print("bench: no gnewton sources under %s; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads
    from ops import CliBatch, Tally

    wl = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (wl.name, wl.seed, args.trace)
    stamp = hostenv.env_stamp(ROOT)
    experiments, audits = workloads.build_inputs(wl)
    cli_ops = wl.cli_ops if not args.trace else workloads.cli_probe(wl)
    cli = CliBatch(wl, cli_ops, experiments, ROOT, os.environ,
                   OUT / ("work-%s-%d" % (tag, os.getpid())))
    tally = Tally()
    try:
        if args.trace:
            host_ms = [hostenv.host_ref_ms()]
            tracer, tally, counts = tracing.traced_run(wl, args.seconds, cli)
            imports = hostenv.import_seconds(ROOT, cli.env)
            host_ms.append(hostenv.host_ref_ms())
            metrics = tracing.layer_metrics(tracer, counts, cli, imports,
                                            statistics.median(host_ms))
            tracer.write(OUT / ("%s-spans.jsonl" % tag))
            cases = tracing.per_case(tracer)
            extra = {"passes": counts["passes"], "spans": len(tracer.spans)}
        else:
            metrics, extra = end_to_end(wl, experiments, audits, cli,
                                        args.seconds, tally)
            cases = None
    finally:
        cli.close()

    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=wl.name, seed=wl.seed,
                  seconds=args.seconds, trace=args.trace, env=stamp,
                  details=extra, cases=cases, failures=tally.reasons)
    (OUT / ("%s.json" % tag)).write_text(json.dumps(record, indent=2) + "\n")

    print("workload %s  seed %d  seconds %g  trace %d"
          % (wl.name, wl.seed, args.seconds, args.trace))
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, v in extra.items():
        print("  %-48s %14.6g" % (name, v))
    for reason in tally.reasons:
        print("  FAILED " + reason)
    print("correct %s: %d attempted, %d failed"
          % (str(correct).lower(), tally.attempted, tally.failed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
