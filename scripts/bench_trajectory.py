"""Record a point of the perf trajectory as BENCH_<n>.json.

Run from the repository root, for example:

    python3 scripts/bench_trajectory.py --parent HEAD~1 --change HEAD \
        --seeds 31-40 --out BENCH_7.json

Both sides are exported to fresh directories (``--change WORKTREE`` takes
the checked-out files, tracked and untracked, minus ignored ones) and run
with identical settings. For each workload it makes one paired
``bench/run.py --trace 0`` run of SECONDS per seed, alternating which
side runs first, then one ``--trace 1`` run of TRACE_SECONDS at
TRACE_SEED on each side. A run whose correctness gates fail aborts it.
The file holds, per workload, every end-to-end metric's runs, median and
quartiles on each side with the number of pairs the change won, both
sides' traced per-layer metrics, with beside them each traced run's
per-solve layer medians (its record's ``cases``: a pooled median mixes
sizes), both SHAs and the environment stamp of the change's runs. It is
rewritten after every workload.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve-ladder", "rate-study", "cli-batch")
SECONDS = 20.0
TRACE_SEED = 1
TRACE_SECONDS = 8.0


def _git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kw).stdout


def export(ref, dest):
    """The files of a git ref, or of the work tree, in dest.
    -> (identity record, dest)"""
    dest.mkdir(parents=True)
    head = _git("rev-parse", "HEAD", text=True).strip()
    if ref == "WORKTREE":
        for name in _git("ls-files", "-co", "--exclude-standard",
                         text=True).splitlines():
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        sha = "uncommitted on %s" % head
    else:
        tar = _git("archive", ref)
        subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
        sha = _git("rev-parse", ref, text=True).strip()
    digest = hashlib.sha256()
    for path in sorted((dest / "src" / "gnewton").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"ref": ref, "sha": sha, "src_sha256": digest.hexdigest()}, dest


def bench(root, workload, seed, seconds, trace):
    """One bench/run.py run in root; exits if a gate fails.
    -> (its JSON verdict line, its record)"""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", str(trace)], cwd=root,
                         check=True, capture_output=True, text=True).stdout
    record = json.loads((root / ".bench_out" / (
        "%s-seed%d-trace%d.json" % (workload, seed, trace))).read_text())
    verdict = json.loads(out.strip().splitlines()[-1])
    if not verdict["correct"]:
        raise SystemExit("%s %s seed %d trace %d: gate failed: %s"
                         % (root.name, workload, seed, trace,
                            record["failures"]))
    return verdict, record


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref")
    ap.add_argument("--change", required=True, help="git ref or WORKTREE")
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="run seeds of the pairs, as FIRST-LAST")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds: need at least two pairs for quartiles")

    bounds = {m["name"]: m for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = export(getattr(args, side), Path(tmp) / side)
        result = {"parent": sides["parent"][0], "change": sides["change"][0],
                  "settings": {"seeds": args.seeds, "seconds": SECONDS,
                               "trace_seed": TRACE_SEED,
                               "trace_seconds": TRACE_SECONDS},
                  "environment": None, "workloads": {}}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    verdict, record = bench(sides[side][1], workload, seed,
                                            SECONDS, 0)
                    runs[side].append(verdict["metrics"])
                    if side == "change":
                        result["environment"] = record["env"]
            e2e = {}
            for name, spec in bounds.items():
                vals = {s: [r[name]["value"] for r in runs[s]] for s in runs}
                sign = 1.0 if spec["better"] == "higher" else -1.0
                wins = sum(sign * (c - p) > 0 for p, c in
                           zip(vals["parent"], vals["change"]))
                e2e[name] = {"unit": spec["unit"], "better": spec["better"],
                             "bound": spec["bound"],
                             "parent": summary(vals["parent"]),
                             "change": summary(vals["change"]),
                             "change_wins": wins, "pairs": len(args.seeds)}
            traced = {side: bench(sides[side][1], workload, TRACE_SEED,
                                  TRACE_SECONDS, 1)
                      for side in ("parent", "change")}
            result["workloads"][workload] = {
                "end_to_end": e2e,
                "traced": {side: {k: m["value"] for k, m in
                                  verdict["metrics"].items()}
                           for side, (verdict, _) in traced.items()},
                "traced_cases": {side: record["cases"]
                                 for side, (_, record) in traced.items()}}
            args.out.write_text(json.dumps(result, indent=1) + "\n")
            print("%s: ops_per_s %s -> %s, change won %d of %d pairs"
                  % (workload, e2e["ops_per_s"]["parent"]["median"],
                     e2e["ops_per_s"]["change"]["median"],
                     e2e["ops_per_s"]["change_wins"], len(args.seeds)),
                  flush=True)


if __name__ == "__main__":
    main()
