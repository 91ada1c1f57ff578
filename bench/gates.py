"""Correctness gates. Each returns ``None`` when the output is correct and
otherwise a one-line reason, which the benchmark counts as a failed op."""

import csv
import io
import json

import numpy as np

from gnewton import distance, match_truth_signs

DIST_TOL = 1e-10  # final distance to the sign-matched truth
REPLAY_TOL = 1e-12  # re-played step against generalized_newton_step
COORD_TOL = 1e-12  # CLI final iterate against the in-process reference
TRACE_HEADER = ["iter", "step_norm", "cost", "error"]


def check_solve(exp, trace):
    """A solve is correct when it terminates ``Converged`` within
    ``DIST_TOL`` of the sign-matched closed-form truth."""
    if trace.termination != "Converged":
        return "terminated %s" % trace.termination
    if exp.truth is None:
        return "no closed-form truth to check against"
    final = trace.points[-1]
    d = distance(final, match_truth_signs(exp.truth, final))
    if not d <= DIST_TOL:
        return "final distance %.3e to the truth" % d
    return None


def check_replay(composed, stepped, recorded):
    """The step re-played from basis, jet, solve and psi must match
    ``generalized_newton_step``, and both the iterate the trace recorded."""
    gap = float(np.max(np.abs(composed - stepped)))
    if not gap <= REPLAY_TOL:
        return "re-played step differs from generalized_newton_step by %.3e" % gap
    gap = float(np.max(np.abs(stepped - recorded)))
    if not gap <= REPLAY_TOL:
        return "step differs from the recorded iterate by %.3e" % gap
    return None


def _read_trace_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != TRACE_HEADER:
        raise ValueError("trace.csv header %r" % (rows[0][:4] if rows else None))
    width = len(rows[0])
    if any(len(r) != width for r in rows[1:]):
        raise ValueError("trace.csv rows of uneven width")
    return rows[1:]


def check_cli_run(code, out_dir, reference):
    """``gnewton run`` must exit 0 with a converged summary within
    ``DIST_TOL`` of the truth and a trace whose final iterate matches the
    in-process ``reference`` coordinates."""
    if code != 0:
        return "run exited %d" % code
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        rows = _read_trace_csv((out_dir / "trace.csv").read_text())
        final = np.array([float(c) for c in rows[-1][4:]])
        dist = summary["truth"]["distance"]
        if summary["termination"] != "Converged":
            return "summary termination %s" % summary["termination"]
        if len(rows) != summary["iterations"] + 1:
            return "trace.csv has %d rows for %d iterations" % (
                len(rows), summary["iterations"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return "run artifact does not parse: %s" % exc
    if not (isinstance(dist, float) and dist <= DIST_TOL):
        return "summary truth distance %r" % (dist,)
    if final.shape != reference.shape:
        return "final iterate has %d coordinates, expected %d" % (
            final.size, reference.size)
    gap = float(np.max(np.abs(final - reference)))
    if not gap <= COORD_TOL:
        return "final iterate differs from the reference by %.3e" % gap
    return None


def check_cli_rates(code, stdout, expected):
    """``gnewton rates`` must exit 0 and print a rate object; with the
    summary's truth spec it must reproduce the summary's fit exactly."""
    if code != 0:
        return "rates exited %d" % code
    try:
        payload = json.loads(stdout)
        insufficient = payload["insufficient_data"]
    except (ValueError, KeyError, TypeError) as exc:
        return "rates output does not parse: %s" % exc
    if not isinstance(insufficient, bool):
        return "rates insufficient_data is %r" % (insufficient,)
    if expected is not None and payload != expected:
        return "rates output differs from the summary's rate"
    return None


def check_cli_audit(code, out_dir):
    """``gnewton audit`` must exit 0 with an audit.json whose anchoring and
    first-derivative identities hold (every audited pair is well formed)."""
    if code != 0:
        return "audit exited %d" % code
    try:
        report = json.loads((out_dir / "audit.json").read_text())
        flags = report["pass"]
        identity, dphi = flags["identity"], flags["dphi"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return "audit.json does not parse: %s" % exc
    if not (identity is True and dphi is True):
        return "audit flags identity=%r dphi=%r" % (identity, dphi)
    return None


def check_audit(report):
    """In-process counterpart of ``check_cli_audit``."""
    if not (report.pass_flags["identity"] and report.pass_flags["dphi"]):
        return "audit flags %r" % (report.pass_flags,)
    return None


def check_repeat(first, again, label):
    """Repeating a config within a run must give byte-identical output."""
    if first != again:
        return "%s differs from the first pass" % label
    return None
