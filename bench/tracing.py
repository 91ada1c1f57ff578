"""The traced run: spans around every call the benchmark makes into a
gnewton module, and the per-layer metrics derived from them.

Each solve is run once, then every recorded step is re-played through the
public functions one module at a time: ``tangent_basis``, the cost
derivatives over that basis, ``pullback_jet``, ``condition_estimate``,
``symmetric_solve``, ``apply_psi`` and, as the reference,
``generalized_newton_step``. The composed step must match the reference and
the iterate the trace recorded. Spans stay in memory and are written out
when the run ends.
"""

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from gnewton import (OutsideValidityRadius, SingularHessian, SplitMix64,
                     TangentVector, ambient_gradient, ambient_hessian_vec,
                     apply_psi, audit_conditions, build_experiment,
                     compute_truth, generalized_newton_step, pair_label,
                     pullback_jet, symmetric_solve, tangent_basis, value)
from gnewton.config import build_audit_setup
from gnewton.linalg import condition_estimate

import gates
from ops import Tally, describe, fit_rate, solve_op
from workloads import RATE_CEIL, RATE_FLOOR, cli_probe


class Tracer:
    """In-memory spans ``(name, start, end, parent index, op id)``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[index] = (name, t0, t1, parent, self.op)

    def ms(self, name):
        return [(t1 - t0) * 1e3 for n, t0, t1, _, _ in self.spans if n == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")


def _x0_seed(config):
    return int(config["x0"].rsplit(":", 1)[1])


def replay(exp, trace, span, counts):
    """Re-play every step of ``trace``; the first mismatch is returned as
    a failure reason."""
    c = exp.cost
    pairs = {pair_label(p): p for p in exp.pairs}
    for k, label in enumerate(trace.pairs_used):
        p, pair = trace.points[k], pairs[label]
        with span("replay.step"):
            with span("manifolds.tangent_basis"):
                basis = tangent_basis(p)
            with span("costs.derivs"):
                value(c, p)
                ambient_gradient(c, p)
                for col in basis.columns.T:
                    ambient_hessian_vec(c, p, col)
            with span("newton.pullback_jet"):
                jet = pullback_jet(c, pair, p)
            with span("linalg.condition_estimate"):
                condition_estimate(jet.hessian)
            try:
                with span("linalg.symmetric_solve"):
                    s = -symmetric_solve(jet.hessian, jet.gradient)
            except SingularHessian:
                counts["linalg.singular"] += 1
                return "step %d: singular Hessian on re-play" % k
            w = TangentVector(p, jet.basis.columns @ s)
            try:
                with span("parametrizations.apply_psi"):
                    composed = apply_psi(pair, w)
            except OutsideValidityRadius:
                counts["parametrizations.apply_psi.guard_trips"] += 1
                return "step %d: psi guard tripped on re-play" % k
            with span("newton.step"):
                stepped = generalized_newton_step(c, pair, p)
        reason = gates.check_replay(composed.ambient, stepped.next.ambient,
                                    trace.points[k + 1].ambient)
        if reason is not None:
            return "step %d: %s" % (k, reason)
    return None


def _usable_pairs(errors):
    return sum(1 for a, b in zip(errors, errors[1:])
               if RATE_FLOOR < a < RATE_CEIL and RATE_FLOOR < b < RATE_CEIL)


def _traced_solve(wl, solve, exp, tracer, counts):
    span = tracer.span
    try:
        with span("op"):
            trace, errors, fit = solve_op(solve, exp, wl.fit_rates, span)
        reason = gates.check_solve(exp, trace)
        if errors is None:
            # this workload's op stops before the rate fit; fit here,
            # outside the op span, so every workload reports the rates layer
            errors, fit = fit_rate(solve, exp, trace, span)
        counts["rates.insufficient"] += fit is None
        counts["rates.pairs"] += max(len(errors) - 1, 0)
        counts["rates.usable_pairs"] += _usable_pairs(errors)
        counts["linalg.singular"] += trace.termination == "SingularHessian"
        counts["newton.steps"] += len(trace.step_norms)
        counts["solves"] += 1
        replayed = replay(exp, trace, span, counts)
    except Exception as exc:  # a raising solve is a failed op; go on
        return describe(exc)
    return reason or replayed


def traced_run(wl, seconds, cli):
    """Trace ``wl``: config building, library passes until ``seconds``
    elapse (one pass for the CLI workload), then CLI passes until
    ``seconds`` elapse for the CLI workload or one CLI probe pass for a
    library workload. Returns ``(tracer, tally, counts)``."""
    tracer, tally, counts = Tracer(), Tally(), Counter()
    span = tracer.span
    experiments = []
    for solve in wl.solves:
        with span("config.build_experiment"):
            exp = build_experiment(solve.config)
        with span("config.compute_truth"):
            compute_truth(exp.manifold, exp.cost)
        with span("rng.gaussians"):
            SplitMix64(_x0_seed(solve.config)).gaussians(
                exp.manifold.intrinsic_dim)
        experiments.append(exp)
    # a workload without audits of its own audits each solve's pair once
    audits = [build_audit_setup(cfg)
              for cfg in (wl.audits or [s.config for s in wl.solves])]

    library_seconds = 0 if wl.cli_ops else seconds
    t_start = perf_counter()
    while True:
        for solve, exp in zip(wl.solves, experiments):
            tracer.op = "%s/%d" % (solve.name, counts["passes"])
            tally.record(solve.name, _traced_solve(wl, solve, exp, tracer,
                                                   counts))
        tracer.op = None
        for m, pairs, (points, radii, seed) in audits:
            try:
                with span("parametrizations.audit_conditions"):
                    report = audit_conditions(pairs[0], m, points, radii, seed)
                counts["audit.dropped"] += report.samples_dropped
                counts["audit.samples"] += points * len(radii)
                reason = gates.check_audit(report)
            except Exception as exc:  # a raising audit is a failure; go on
                reason = describe(exc)
            tally.record("audit " + pair_label(pairs[0]), reason)
        counts["passes"] += 1
        if perf_counter() - t_start >= library_seconds:
            break

    cli_seconds = seconds if wl.cli_ops else 0
    t_start = perf_counter()
    while True:
        cli.run_pass(cli_probe(wl), tally, span)
        if perf_counter() - t_start >= cli_seconds:
            break
    return tracer, tally, counts


CASE_LAYERS = ("op", "manifolds.tangent_basis", "costs.derivs",
               "newton.pullback_jet", "newton.step")


def per_case(tracer):
    """Median ms of the main step layers for each solve of the workload,
    for the run's record file: a workload-wide median mixes sizes."""
    by_case = defaultdict(lambda: defaultdict(list))
    for name, t0, t1, _, op in tracer.spans:
        if op is not None and name in CASE_LAYERS:
            by_case[op.rsplit("/", 1)[0]][name].append((t1 - t0) * 1e3)
    return {case: {name: statistics.median(v) for name, v in layers.items()}
            for case, layers in by_case.items()}


def _p50(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def _children(tracer):
    kids = defaultdict(dict)
    for name, t0, t1, parent, _ in tracer.spans:
        if parent is not None:
            kids[parent][name] = (t1 - t0) * 1e3
    return kids


def layer_metrics(tracer, counts, cli, imports, host_ms):
    """Per-layer metrics. Counts are per library pass (per CLI pass for
    ``cli.artifact_bytes``), so they repeat exactly for a given seed.

    Derived ones: ``newton.pullback_jet.correction_ms`` is, per step, jet
    minus basis minus cost derivatives; ``newton.driver_ms`` is, per solve,
    ``run_iteration`` minus its re-played steps (selector, value calls,
    validation); ``trace.op_ms_p50`` is the op latency with tracing on, to
    set against the untraced ``op_ms_p50`` for the tracing overhead."""
    passes = counts["passes"]
    kids = _children(tracer)
    steps = [kids[i] for i, s in enumerate(tracer.spans)
             if s[0] == "replay.step"]
    correction = [k["newton.pullback_jet"] - k["manifolds.tangent_basis"]
                  - k["costs.derivs"] for k in steps
                  if "newton.pullback_jet" in k]
    step_ms, iterate_ms = defaultdict(float), {}
    for name, t0, t1, _, op in tracer.spans:
        if name == "newton.step":
            step_ms[op] += (t1 - t0) * 1e3
        elif name == "newton.run_iteration":
            iterate_ms[op] = (t1 - t0) * 1e3
    outside_steps = [ms - step_ms[op] for op, ms in iterate_ms.items()]
    p50 = {name: _p50(tracer.ms(name)) for name in (
        "manifolds.tangent_basis", "costs.derivs", "newton.pullback_jet",
        "linalg.condition_estimate", "linalg.symmetric_solve",
        "parametrizations.apply_psi", "parametrizations.audit_conditions",
        "newton.step", "rates.error_sequence", "rates.estimate_rate",
        "config.build_experiment", "config.compute_truth", "rng.gaussians",
        "cli.run", "cli.audit", "cli.rates", "op")}
    values = {
        "manifolds.tangent_basis.ms_p50": (p50["manifolds.tangent_basis"], "ms"),
        "manifolds.tangent_basis.calls": (
            len(tracer.ms("manifolds.tangent_basis")) / passes, "count"),
        "costs.derivs.ms_p50": (p50["costs.derivs"], "ms"),
        "newton.pullback_jet.ms_p50": (p50["newton.pullback_jet"], "ms"),
        "newton.pullback_jet.calls": (
            len(tracer.ms("newton.pullback_jet")) / passes, "count"),
        "newton.pullback_jet.correction_ms": (_p50(correction), "ms"),
        "linalg.symmetric_solve.ms_p50": (p50["linalg.symmetric_solve"], "ms"),
        "linalg.condition_estimate.ms_p50": (
            p50["linalg.condition_estimate"], "ms"),
        "linalg.singular": (counts["linalg.singular"] / passes, "count"),
        "parametrizations.apply_psi.ms_p50": (
            p50["parametrizations.apply_psi"], "ms"),
        "parametrizations.apply_psi.guard_trips": (
            counts["parametrizations.apply_psi.guard_trips"] / passes, "count"),
        "parametrizations.audit_conditions.ms_p50": (
            p50["parametrizations.audit_conditions"], "ms"),
        "parametrizations.audit_conditions.dropped_ratio": (
            counts["audit.dropped"] / counts["audit.samples"], "ratio"),
        "newton.step.ms_p50": (p50["newton.step"], "ms"),
        "newton.steps_per_solve": (counts["newton.steps"] / counts["solves"],
                                   "count"),
        "newton.driver_ms": (_p50(outside_steps), "ms"),
        "rates.error_sequence.ms_p50": (p50["rates.error_sequence"], "ms"),
        "rates.estimate_rate.ms_p50": (p50["rates.estimate_rate"], "ms"),
        "rates.insufficient": (counts["rates.insufficient"] / passes, "count"),
        "rates.usable_pairs_ratio": (
            counts["rates.usable_pairs"] / counts["rates.pairs"], "ratio"),
        "config.build_experiment.ms_p50": (p50["config.build_experiment"], "ms"),
        "config.compute_truth.ms_p50": (p50["config.compute_truth"], "ms"),
        "rng.gaussians.ms_p50": (p50["rng.gaussians"], "ms"),
        "import.gnewton_s": (imports["gnewton"], "s"),
        "import.scipy_linalg_s": (imports["scipy.linalg"], "s"),
        "cli.run.ms_p50": (p50["cli.run"], "ms"),
        "cli.audit.ms_p50": (p50["cli.audit"], "ms"),
        "cli.rates.ms_p50": (p50["cli.rates"], "ms"),
        "cli.artifact_bytes": (cli.artifact_bytes, "bytes"),
        "host.ref_ms": (host_ms, "ms"),
        "trace.op_ms_p50": (p50["op"], "ms"),
    }
    return {name: {"value": v, "unit": unit}
            for name, (v, unit) in values.items()}
