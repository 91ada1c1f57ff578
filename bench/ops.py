"""The ops the benchmark times, shared by the untraced and the traced run.

``span`` arguments take a name and return a context manager: ``no_span``
when tracing is off, ``tracing.Tracer.span`` when it is on.
"""

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

from gnewton import (InsufficientData, error_sequence, estimate_rate,
                     match_truth_signs, run_iteration)

import gates
from workloads import RATE_CEIL, RATE_FLOOR

CLI_TIMEOUT_S = 60


def no_span(name):
    return nullcontext()


class Tally:
    """Attempted and failed gated calls, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("%s: %s" % (what, reason))


def fit_rate(solve, exp, trace, span=no_span):
    """``error_sequence`` then ``estimate_rate``, as a user measuring a rate
    does. Returns ``(errors, fit)``; ``fit`` is None on InsufficientData,
    which is a measured outcome, not a failure, and is never retried."""
    with span("rates.error_sequence"):
        truth = (match_truth_signs(exp.truth, trace.points[-1])
                 if solve.rate_truth else None)
        errors = error_sequence(trace, truth)
    with span("rates.estimate_rate"):
        try:
            fit = estimate_rate(errors, RATE_FLOOR, RATE_CEIL)
        except InsufficientData:
            fit = None
    return errors, fit


def solve_op(solve, exp, fit_rates, span=no_span):
    """One op of a library workload: ``run_iteration`` to termination and,
    with ``fit_rates``, the rate fit. Returns ``(trace, errors, fit)``,
    with ``errors`` None when the op does not fit a rate."""
    with span("newton.run_iteration"):
        trace = run_iteration(exp.cost, exp.selector, exp.x0, exp.max_iter,
                              exp.tol)
    if not fit_rates:
        return trace, None, None
    return (trace,) + fit_rate(solve, exp, trace, span)


def describe(exc):
    return "raised %s: %s" % (type(exc).__name__, exc)


class CliBatch:
    """Runs ``python -m gnewton.cli`` ops as subprocesses, one at a time,
    with ``PYTHONPATH=src`` and outputs under ``workdir``, and gates their
    exit status and artifacts. Every pass writes to a fresh directory;
    each artifact must repeat the first pass's bytes exactly."""

    def __init__(self, wl, ops, experiments, root, env, workdir):
        self.root = root
        self.env = dict(env, PYTHONPATH="src")
        self.workdir = workdir
        self.passes = 0
        self.first = {}
        self.artifact_bytes = 0
        workdir.mkdir(parents=True)
        # config files, and the in-process reference iterate, for every
        # solve the ops use
        self.reference = {}
        used = {op.solve for op in ops}
        for solve, exp in zip(wl.solves, experiments):
            if solve.name not in used:
                continue
            path = workdir / ("%s.json" % solve.name)
            path.write_text(json.dumps(solve.config, indent=2))
            trace = run_iteration(exp.cost, exp.selector, exp.x0,
                                  exp.max_iter, exp.tol)
            self.reference[solve.name] = trace.points[-1].ambient

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _args(self, op, pass_dir):
        config = str(self.workdir / ("%s.json" % op.solve))
        out = str(pass_dir / op.name)
        if op.command == "run":
            return ["run", config, "--out", out, "--jobs", "1"]
        if op.command == "audit":
            return ["audit", config, "--out", out]
        run_dir = pass_dir / ("run-%s" % op.solve)
        try:
            summary = json.loads((run_dir / "summary.json").read_text())
            spec = summary["truth"]["spec"] if op.rate_truth else "none"
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return ["rates", str(run_dir / "trace.csv"), "--truth", spec,
                "--floor", repr(RATE_FLOOR), "--ceil", repr(RATE_CEIL)]

    def _artifacts(self, op, out_dir, proc):
        if op.command == "run":
            return {f: (out_dir / f).read_bytes()
                    for f in ("trace.csv", "summary.json")}
        if op.command == "audit":
            return {"audit.json": (out_dir / "audit.json").read_bytes()}
        return {"stdout": proc.stdout.encode()}

    def _gate(self, op, proc, pass_dir):
        out_dir = pass_dir / op.name
        if op.command == "run":
            reason = gates.check_cli_run(proc.returncode, out_dir,
                                         self.reference[op.solve])
        elif op.command == "audit":
            reason = gates.check_cli_audit(proc.returncode, out_dir)
        else:
            expected = None
            if op.rate_truth:
                run_dir = pass_dir / ("run-%s" % op.solve)
                summary = json.loads((run_dir / "summary.json").read_text())
                expected = summary["rate"]
            reason = gates.check_cli_rates(proc.returncode, proc.stdout,
                                           expected)
        if reason is not None:
            return reason
        for name, data in self._artifacts(op, out_dir, proc).items():
            key = (op.name, name)
            if key not in self.first:
                self.first[key] = data
                self.artifact_bytes += len(data)
            reason = gates.check_repeat(self.first[key], data,
                                        "%s %s" % (op.name, name))
            if reason is not None:
                return reason
        return None

    def run_pass(self, ops, tally, span=no_span, between=lambda: None):
        """Run ``ops`` once, in order, calling ``between`` after each.
        Returns ``(op, passed, start, end)`` for each op that was started,
        with the ``perf_counter`` times around its subprocess."""
        pass_dir = self.workdir / ("pass%d" % self.passes)
        self.passes += 1
        timings = []
        for op in ops:
            args = self._args(op, pass_dir)
            if args is None:
                tally.record(op.name, "no run artifacts to fit a rate to")
                continue
            with span("cli." + op.command):
                t0 = perf_counter()
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "gnewton.cli"] + args,
                        cwd=self.root, env=self.env, capture_output=True,
                        text=True, timeout=CLI_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc = None
                t1 = perf_counter()
            if proc is None:
                reason = "timed out after %ds" % CLI_TIMEOUT_S
            else:
                try:
                    reason = self._gate(op, proc, pass_dir)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    reason = describe(exc)
            tally.record(op.name, reason)
            timings.append((op, reason is None, t0, t1))
            between()
        return timings
