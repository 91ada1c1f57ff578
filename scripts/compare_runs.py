"""Compare what two trees compute on every benchmark workload config.

Run from the repository root, for example:

    python3 scripts/compare_runs.py --parent HEAD~1 --change WORKTREE \
        --out compare.json

Both sides are exported as ``scripts/bench_trajectory.py`` exports them.
In each, one process (BLAS pinned to one thread) builds every config of
the three workloads of that side's ``bench/workloads.py`` at run seeds
0-2. Each solve config is iterated through the library, which gives its
termination, step count, ``pairs_used`` and iterates, and run in-process
through the CLI: ``gnewton run`` (exit code, ``summary.json``), then
``gnewton rates`` on its trace with the summary's truth and with ``none``.
``gnewton audit`` runs every config with an audit block and every
audit-only config. The report names every run whose termination, step
count, ``pairs_used`` or exit code differs, the largest iterate
difference, every ``audit.json`` that differs, the ``summary.json`` keys
that differ, and every ``rate`` block (summary, rates with truth, rates
with ``none``) that differs. The exit status is 1 when a termination,
step count, ``pairs_used``, exit code or ``audit.json`` differs, else 0.

Beside these, each run records the sha256 of its ``trace.csv``, its
``summary.json`` and each iterate's bytes, so a signed zero or a
reformatted file shows. The report counts the artifacts whose bytes
differ and names their configs; a byte difference alone is no hard
difference.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_SEEDS = (0, 1, 2)
RATE_SOURCES = ("summary", "rates_truth", "rates_none")
BYTE_FIELDS = ("trace_sha", "summary_sha", "iterates_sha")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect(out_path):
    """One side's records, written to out_path; runs inside the side's
    export with its src and bench on the path."""
    import hostenv
    hostenv.pin_threads()  # before numpy is first imported
    import workloads
    from gnewton.cli import main
    from gnewton.config import build_experiment
    from gnewton.newton import run_iteration

    def cli(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        return code, buf.getvalue()

    def audit(cfg, work):
        path = work / "audit-config.json"
        path.write_text(json.dumps(cfg))
        code, _ = cli("audit", path, "--out", work / "audit")
        out = work / "audit" / "audit.json"
        data = out.read_bytes() if code == 0 else b""
        return {"audit_exit": code, "audit_sha": _sha(data)}

    def rates(trace_csv, spec):
        code, out = cli("rates", trace_csv, "--truth", spec, "--floor",
                        repr(workloads.RATE_FLOOR), "--ceil",
                        repr(workloads.RATE_CEIL))
        return {"exit": code,
                "payload": json.loads(out) if code == 0 else None}

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in RUN_SEEDS:
                wl = workloads.make(name, seed)
                for solve in wl.solves:
                    key = "%s/%d/%s" % (name, seed, solve.name)
                    work = Path(tmp) / key
                    work.mkdir(parents=True)
                    exp = build_experiment(solve.config)
                    trace = run_iteration(exp.cost, exp.selector, exp.x0,
                                          exp.max_iter, exp.tol)
                    rec = {"termination": trace.termination,
                           "steps": len(trace.step_norms),
                           "pairs_used": list(trace.pairs_used),
                           "iterates": [p.ambient.tolist()
                                        for p in trace.points],
                           "iterates_sha": [_sha(p.ambient.tobytes())
                                            for p in trace.points]}
                    cfg = work / "config.json"
                    cfg.write_text(json.dumps(solve.config))
                    rec["run_exit"], _ = cli("run", cfg, "--out", work / "run")
                    run = work / "run"
                    for field, artifact in (("trace_sha", "trace.csv"),
                                            ("summary_sha", "summary.json")):
                        path = run / artifact
                        rec[field] = (_sha(path.read_bytes())
                                      if path.is_file() else None)
                    summary = rec["summary"] = (
                        json.loads((run / "summary.json").read_text())
                        if (run / "summary.json").is_file() else {})
                    spec = (summary.get("truth") or {}).get("spec")
                    rec["rates_truth"] = (None if spec is None else
                                          rates(run / "trace.csv", spec))
                    rec["rates_none"] = (rates(run / "trace.csv", "none")
                                         if summary else None)
                    if "audit" in solve.config:
                        rec.update(audit(solve.config, work))
                    records[key] = rec
                for i, cfg in enumerate(wl.audits):
                    key = "%s/%d/audit-%d" % (name, seed, i)
                    work = Path(tmp) / key
                    work.mkdir(parents=True)
                    records[key] = audit(cfg, work)
    Path(out_path).write_text(json.dumps(records))


def side_records(root, tmp, label):
    out = Path(tmp) / ("%s.json" % label)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "bench")]))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--collect", str(out)], cwd=root, env=env, check=True)
    return json.loads(out.read_text())


def _rate(rec, source):
    if source == "summary":
        return rec["summary"].get("rate")
    got = rec[source]
    return None if got is None else got["payload"]


def compare(parent, change):
    """-> (report dict, whether a hard difference was found)"""
    hard, iterate_max, summary_keys, rate_diffs = [], (0.0, None), {}, []
    byte_diffs = {field: [] for field in BYTE_FIELDS}
    runs = audits = 0
    if parent.keys() != change.keys():
        hard.append({"configs": sorted(parent.keys() ^ change.keys())})
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        if "audit_sha" in p:
            audits += 1
            for field in ("audit_exit", "audit_sha"):
                if p[field] != c[field]:
                    hard.append({"config": key, "field": field,
                                 "parent": p[field], "change": c[field]})
        if "termination" not in p:
            continue
        runs += 1
        for field in ("termination", "steps", "pairs_used", "run_exit"):
            if p[field] != c[field]:
                hard.append({"config": key, "field": field,
                             "parent": p[field], "change": c[field]})
        for src in ("rates_truth", "rates_none"):
            codes = [None if r[src] is None else r[src]["exit"]
                     for r in (p, c)]
            if codes[0] != codes[1]:
                hard.append({"config": key, "field": src + "_exit",
                             "parent": codes[0], "change": codes[1]})
        if len(p["iterates"]) == len(c["iterates"]):
            diff = max(abs(a - b) for xp, xc in zip(p["iterates"],
                                                    c["iterates"])
                       for a, b in zip(xp, xc))
            if diff > iterate_max[0]:
                iterate_max = (diff, key)
        for field in BYTE_FIELDS:
            if p[field] != c[field]:
                byte_diffs[field].append(key)
        for k in p["summary"].keys() | c["summary"].keys():
            if p["summary"].get(k) != c["summary"].get(k):
                summary_keys[k] = summary_keys.get(k, 0) + 1
        for src in RATE_SOURCES:
            rp, rc = _rate(p, src), _rate(c, src)
            if rp != rc:
                rate_diffs.append({"config": key, "source": src,
                                   "parent": rp, "change": rc})
    flips = sum((d["parent"] or {}).get("insufficient_data")
                != (d["change"] or {}).get("insufficient_data")
                for d in rate_diffs)
    moved_k = [abs(d["parent"]["K"] - d["change"]["K"]) for d in rate_diffs
               if "K" in (d["parent"] or {}) and "K" in (d["change"] or {})]
    report = {"runs": runs, "audits": audits, "hard_differences": hard,
              "max_iterate_difference": {"value": iterate_max[0],
                                         "config": iterate_max[1]},
              "artifact_bytes_differing": {
                  "total": sum(map(len, byte_diffs.values())),
                  "by_artifact": byte_diffs},
              "summary_keys_differing": summary_keys,
              "rate_blocks_differing": {
                  "total": len(rate_diffs),
                  "by_source": {s: sum(d["source"] == s for d in rate_diffs)
                                for s in RATE_SOURCES},
                  "insufficient_data_flips": flips,
                  # 0.01: the most a published K may move with rounding
                  "K_moved_over_0.01": sum(k > 0.01 for k in moved_k),
                  "K_moved_over_0.1": sum(k > 0.1 for k in moved_k)},
              "rate_differences": rate_diffs}
    return report, bool(hard)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="git ref")
    ap.add_argument("--change", help="git ref or WORKTREE")
    ap.add_argument("--out", type=Path, help="write the full report here")
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        return collect(args.collect)
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    from bench_trajectory import export

    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: export(getattr(args, side), Path(tmp) / side)
                 for side in ("parent", "change")}
        recs = {side: side_records(root, tmp, side)
                for side, (_, root) in sides.items()}
    report, failed = compare(recs["parent"], recs["change"])
    report = dict({side: ident for side, (ident, _) in sides.items()},
                  **report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    brief = {k: v for k, v in report.items() if k != "rate_differences"}
    print(json.dumps(brief, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
