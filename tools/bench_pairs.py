"""Alternating benchmark runs of a parent revision and of this tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload submissions \
        --seeds 401 402 403 404 405 --out BENCH_17.json

Exports the parent revision with ``git archive`` to a temporary directory,
then runs ``perfbench/run.py --trace 0`` once in each tree per workload and
seed, the two runs of a pair back to back. The pairs take turns at going
first, so that a machine that drifts between a fast and a slow speed favours
neither side. Every run's end-to-end metrics are kept, with the median and
the interquartile range of each side and, for each metric that
BENCHMARK.json declares, the number of pairs in which this tree did better.
The record also gives both git revisions, the Python version and the CPU
count. Each call appends its record to the ``records`` list in --out. A run
that exits non-zero, or is not ``correct``, or has failed operations, is
recorded as it is and makes the tool exit 1. Each run's work directory under
``.perfbench-work`` is deleted once its result is read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    # run.py keeps its inputs and outputs in this directory until the same
    # workload and seed run again; the result is in stdout.
    shutil.rmtree(tree / ".perfbench-work" / f"{workload}-{seed}", ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"exit": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(runs: list[dict]) -> dict:
    names = sorted({name for run in runs for name in run.get("metrics", {})})
    out = {"median": {}, "iqr": {}}
    for name in names:
        values = [run["metrics"][name] for run in runs if name in run.get("metrics", {})]
        q1, q2, q3 = _quartiles(values)
        out["median"][name], out["iqr"][name] = q2, q3 - q1
    return out


def _wins(pairs: list[tuple[dict, dict]], declared: dict[str, str]) -> dict:
    """For each declared metric, in how many pairs this tree did better."""
    wins = {}
    for name, better in declared.items():
        scored = [(p["metrics"][name], t["metrics"][name]) for p, t in pairs
                  if name in p.get("metrics", {}) and name in t.get("metrics", {})]
        won = sum(t > p if better == "higher" else t < p for p, t in scored)
        wins[name] = f"{won}/{len(scored)}"
    return wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    args.seconds = args.seconds or benchmark["run_seconds"]
    record = {
        "revisions": {"parent": _git("rev-parse", args.parent), "tree": _git("rev-parse", "HEAD"),
                      "tree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
        "seeds": args.seeds,
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        _export(args.parent, parent)
        trees = {"parent": parent, "tree": ROOT}
        for workload in args.workload:
            runs, pairs = [], []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
                pair = {}
                for side in order:
                    run = {"side": side, "seed": seed,
                           **_run(trees[side], workload, seed, args.seconds)}
                    ok &= run["exit"] == 0 and run["correct"] and run["failed"] == 0
                    runs.append(run)
                    pair[side] = run
                    print(json.dumps({"workload": workload, **run}), file=sys.stderr)
                pairs.append((pair["parent"], pair["tree"]))
            record["workloads"][workload] = {
                "runs": runs,
                **{side: _summary([r for r in runs if r["side"] == side]) for side in trees},
                "tree_better_in_pairs": _wins(pairs, declared),
            }
    out = Path(args.out)
    records = json.loads(out.read_text(encoding="utf-8"))["records"] if out.exists() else []
    out.write_text(json.dumps({"records": [*records, record]}, indent=1) + "\n",
                   encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
