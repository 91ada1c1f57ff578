"""Command line front end: run experiments, audit pairs, fit rates.

Exit status encodes the outcome: 0 converged (or a report was produced),
2 the pullback Hessian went singular, 3 the iteration budget ran out,
4 a configuration or input file was rejected, 5 an iterate left the
region where the chosen maps are defined.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import (build_audit_setup, build_experiment, build_manifold,
                     load_config, match_truth_signs)
from .errors import ConfigError, InsufficientData, ManifoldMismatch
from .manifolds import Point, euclidean
from .newton import run_iteration
from .parametrizations import audit_conditions, pair_label
from .rates import DEFAULT_CEIL, DEFAULT_FLOOR, error_sequence, resolvable_rate

_EXIT_BY_TERMINATION = {
    "Converged": 0,
    "SingularHessian": 2,
    "MaxIterations": 3,
    "LeftValidityRegion": 5,
}


# --- serialization helpers ----------------------------------------------------

def _sanitize(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats -> null."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump_json(path, obj):
    text = json.dumps(_sanitize(obj), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_trace_csv(path, trace, errors=None):
    """One row per iterate; repr() floats so a read-back is bit-exact.

    errors is the per-iterate distance-to-truth list, or None to leave the
    error column empty (no closed-form truth).
    """
    m = trace.points[0].manifold
    header = (["iter", "step_norm", "cost", "error"]
              + ["coord_%d" % i for i in range(m.ambient_dim)])
    lines = [",".join(header)]
    for k, pt in enumerate(trace.points):
        row = [
            str(k),
            "" if k == 0 else repr(float(trace.step_norms[k - 1])),
            repr(float(trace.cost_values[k])),
            "" if errors is None else repr(float(errors[k])),
        ]
        row.extend(repr(float(c)) for c in pt.ambient)
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _truth_spec_string(pt: Point) -> str:
    m = pt.manifold
    dims = ",".join("%d" % d for d in m.dims)
    coords = ",".join(repr(float(c)) for c in pt.ambient)
    return "%s:%s:%s" % (m.kind, dims, coords)


def _parse_truth_spec(spec: str):
    """\"none\" or \"kind:n[,p]:c0,c1,...\" (column-major coordinates), with
    p given exactly where the manifold takes it, as in a config."""
    if spec == "none":
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("truth spec: expected \"none\" or KIND:DIMS:COORDS")
    kind, dims, coords = parts
    try:
        dd = [int(t) for t in dims.split(",")]
        cs = [float(t) for t in coords.split(",")]
        if len(dd) not in (1, 2):
            raise ValueError("dims must be n or n,p")
        m = build_manifold(dict(zip(("kind", "n", "p"), [kind] + dd)))
        return Point(m, np.array(cs))
    except ValueError as exc:  # a ConfigError too
        raise ConfigError("truth spec: %s" % exc) from exc


def _rate_payload(sequences, limits, floor, ceil) -> dict:
    """The rate object of `resolvable_rate` over the error sequences, each
    measured to its limit point."""
    try:
        est = resolvable_rate(sequences, limits, floor, ceil)
    except InsufficientData as exc:
        return {"insufficient_data": True, "reason": str(exc)}
    rho_bar = None
    if abs(1.0 - est.K) > 1e-9:
        try:
            r = est.kappa ** (1.0 / (1.0 - est.K))
            if math.isfinite(r):
                rho_bar = float(r)
        except (OverflowError, ZeroDivisionError):
            rho_bar = None
    return {
        "insufficient_data": False,
        "K": est.K,
        "kappa": est.kappa,
        "window": list(est.window),
        "fit_residual": est.fit_residual,
        "n_points": est.n_points,
        "rho_bar": rho_bar,
    }


# --- run ----------------------------------------------------------------------

def _run_one(config_path: str, out_dir: str, seed_override) -> int:
    try:
        cfg = load_config(config_path)
        exp = build_experiment(cfg, seed_override)
        trace = run_iteration(exp.cost, exp.selector, exp.x0, exp.max_iter,
                              exp.tol)  # refuses its budget before a step
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        truth = exp.truth
        if truth is not None:
            truth = match_truth_signs(truth, trace.points[-1])
        errors = error_sequence(trace, truth)
        write_trace_csv(out / "trace.csv", trace,
                        None if truth is None else errors)

        summary = {
            "config": cfg,
            "termination": trace.termination,
            "iterations": len(trace.points) - 1,
            "final_cost": float(trace.cost_values[-1]),
            "truth": None,
            "rate": _rate_payload([errors], [truth or trace.points[-1]],
                                  exp.rate_floor, exp.rate_ceil),
            "artifacts": {"trace_csv": "trace.csv",
                          "summary_json": "summary.json"},
        }
        if truth is not None:
            summary["truth"] = {"spec": _truth_spec_string(truth),
                                "distance": errors[-1]}
        _dump_json(out / "summary.json", summary)
    except (ConfigError, OSError) as exc:
        print("error: %s: %s" % (config_path, exc), file=sys.stderr)
        return 4
    return _EXIT_BY_TERMINATION[trace.termination]


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs: must be >= 1")
    if len(args.configs) == 1:
        tasks = [(args.configs[0], args.out, args.seed_override)]
    else:
        stems = [Path(p).stem for p in args.configs]
        dups = sorted({s for s in stems if stems.count(s) > 1})
        if dups:
            raise ConfigError("duplicate config stem %r; outputs would collide"
                              % dups[0])
        tasks = [(p, str(Path(args.out) / Path(p).stem), args.seed_override)
                 for p in args.configs]
    if args.jobs > 1 and len(tasks) > 1:
        # lazily: the pool imports multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, *zip(*tasks)))
    else:
        codes = [_run_one(*t) for t in tasks]
    return max(codes)


# --- audit --------------------------------------------------------------------

def cmd_audit(args) -> int:
    try:
        cfg = load_config(args.config)
        m, pairs, (points, radii, seed) = build_audit_setup(cfg,
                                                            args.seed_override)
        report = audit_conditions(pairs[0], m, points, radii, seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": cfg,
            "pair": pair_label(pairs[0]),
            "alpha_hat": report.alpha_hat,
            "beta_hat": report.beta_hat,
            "fitted_slope": report.fitted_slope,
            "identity_residual": report.identity_residual,
            "dphi_residual": report.dphi_residual,
            "pass": dict(report.pass_flags),
            "samples_dropped": report.samples_dropped,
            "radii": list(report.radii),
        }
        _dump_json(out / "audit.json", payload)
    except (ConfigError, OSError) as exc:
        print("error: %s: %s" % (args.config, exc), file=sys.stderr)
        return 4
    except (ValueError, ManifoldMismatch) as exc:
        print("error: %s: audit: %s" % (args.config, exc), file=sys.stderr)
        return 4
    return 0


# --- rates --------------------------------------------------------------------

def _read_trace_csv(path):
    """Coordinate rows from a trace CSV, schema-checked. -> (rows, ncoords)"""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("trace CSV: %s" % exc) from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ConfigError("trace CSV: empty file")
    header = lines[0].split(",")
    if len(header) < 5 or header[:4] != ["iter", "step_norm", "cost", "error"]:
        raise ConfigError("trace CSV: header must start "
                          "iter,step_norm,cost,error,coord_0,...")
    ncoords = len(header) - 4
    for i, name in enumerate(header[4:]):
        if name != "coord_%d" % i:
            raise ConfigError("trace CSV: column %d must be coord_%d, got %r"
                              % (4 + i, i, name))
    rows = []
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError("trace CSV row %d: expected %d fields, got %d"
                              % (r, len(header), len(cells)))
        try:
            it = int(cells[0])
            coords = np.array([float(c) for c in cells[4:]])
        except ValueError as exc:
            raise ConfigError("trace CSV row %d: %s" % (r, exc)) from exc
        if it != r - 1:
            raise ConfigError("trace CSV row %d: iter %d out of sequence"
                              % (r, it))
        for j, name in ((1, "step_norm"), (2, "cost"), (3, "error")):
            if cells[j] != "":
                try:
                    float(cells[j])
                except ValueError as exc:
                    raise ConfigError("trace CSV row %d: bad %s field %r"
                                      % (r, name, cells[j])) from exc
        rows.append(coords)
    if not rows:
        raise ConfigError("trace CSV: no iterate rows")
    return rows, ncoords


def _trace_points(path, truth):
    """The iterates of one trace CSV, on the truth's manifold, or as
    ambient vectors where there is no truth."""
    rows, ncoords = _read_trace_csv(path)
    if truth is not None:
        m = truth.manifold
        if ncoords != m.ambient_dim:
            raise ConfigError("trace CSV has %d coordinates but truth "
                              "lives in dimension %d"
                              % (ncoords, m.ambient_dim))
    else:
        # no truth: rows are treated as ambient vectors, the last iterate
        # stands in for the limit and the final two rows are dropped
        m = euclidean(ncoords)
    try:
        return [Point(m, c) for c in rows]
    except ValueError as exc:
        raise ConfigError("trace CSV: row not on %s: %s"
                          % (m.kind, exc)) from exc


def cmd_rates(args) -> int:
    try:
        if not (0 <= args.floor < args.ceil):
            raise ConfigError("--floor/--ceil: need 0 <= floor < ceil")
        truth = _parse_truth_spec(args.truth)
        traces = [_trace_points(path, truth) for path in args.traces]
        errors = [error_sequence(pts, truth) for pts in traces]
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    payload = _rate_payload(errors, [truth or pts[-1] for pts in traces],
                            args.floor, args.ceil)
    print(json.dumps(_sanitize(payload), indent=2))
    return 0


# --- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting, so they map to status 4."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(prog="gnewton",
                description="Newton iterations on manifolds through "
                            "parametrisation pairs")
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{run,audit,rates}")

    r = sub.add_parser("run", help="iterate an experiment config, write "
                                   "trace.csv and summary.json")
    r.add_argument("configs", nargs="+", metavar="config",
                   help="experiment config JSON (several run as a batch)")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for a batch (default 1)")
    r.add_argument("--seed-override", type=int, default=None,
                   dest="seed_override",
                   help="replace every seed the config mentions")
    r.set_defaults(func=cmd_run)

    a = sub.add_parser("audit", help="sample the sufficient conditions for "
                                     "the config's first pair, write "
                                     "audit.json")
    a.add_argument("config", help="config JSON with manifold and pairs")
    a.add_argument("--out", required=True, help="output directory")
    a.add_argument("--seed-override", type=int, default=None,
                   dest="seed_override",
                   help="replace the audit sampling seed")
    a.set_defaults(func=cmd_audit)

    t = sub.add_parser("rates", help="fit a convergence rate to one trace "
                                     "CSV, or one pooled rate to several, "
                                     "print JSON")
    t.add_argument("traces", nargs="+", metavar="trace",
                   help="trace.csv produced by the run subcommand")
    t.add_argument("--truth", required=True,
                   help="\"none\" or KIND:DIMS:COORDS (the summary.json "
                        "truth spec), one for every trace")
    t.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                   help="ignore errors at or below this (default %g)"
                        % DEFAULT_FLOOR)
    t.add_argument("--ceil", type=float, default=DEFAULT_CEIL,
                   help="ignore errors at or above this (default %g)"
                        % DEFAULT_CEIL)
    t.set_defaults(func=cmd_rates)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
