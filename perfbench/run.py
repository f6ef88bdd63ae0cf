"""Benchmark of ``clinic analyze`` on seeded manuscripts.

    python3 perfbench/run.py --workload monograph --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout with nothing installed: the
program is imported from ./src. The inputs are generated from the seed and
written to disk, then a fresh interpreter (measure.py) analyses them in a
closed loop through ``prose_clinic.cli.run``; every output is checked. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import gen  # noqa: E402

SETUP_PROBES = 7

# name -> (format, output form, config text, lexicon text)
WORKLOADS = {
    "monograph": ("markdown", "human", gen.MONOGRAPH_CONFIG, gen.LEXICON),
    "submissions": ("markdown", "machine", gen.SUBMISSIONS_CONFIG, gen.SUBMISSIONS_LEXICON),
    "symptom-dense": ("plain", "machine", gen.DENSE_CONFIG, gen.DENSE_LEXICON),
}

# Public names the untraced run and the checks need.
REQUIRED = {
    "cli": ("run",),
    "config": ("AnalysisConfig",),
    "document": ("parse_document", "tokenize", "WORD"),
    "lexicon": ("default_lexicon", "load_lexicon_extensions"),
    "reporting": ("parse_machine", "render_machine"),
}


class BenchError(RuntimeError):
    pass


def _import_program() -> dict:
    if not (SRC / "prose_clinic").is_dir():
        raise BenchError(f"no prose_clinic package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    modules = {}
    for name, attrs in REQUIRED.items():
        try:
            modules[name] = importlib.import_module(f"prose_clinic.{name}")
        except ImportError as exc:
            raise BenchError(f"cannot import prose_clinic.{name}: {exc}") from exc
        missing = [a for a in attrs if not hasattr(modules[name], a)]
        if missing:
            raise BenchError(f"prose_clinic.{name} lacks {', '.join(missing)}")
    return modules


def _generate(workload: str, seed: int) -> list:
    if workload == "monograph":
        return [gen.monograph(seed)]
    if workload == "submissions":
        return gen.submissions(seed)
    return [gen.symptom_dense(seed)]


def _write_inputs(workload: str, seed: int, work: Path):
    fmt, output, config_text, lexicon_text = WORKLOADS[workload]
    docs = _generate(workload, seed)
    config = work / "workload.cfg"
    lexicon = work / "workload.lex"
    config.write_text(config_text, encoding="utf-8")
    lexicon.write_text(lexicon_text, encoding="utf-8")
    (work / "in").mkdir()
    (work / "out").mkdir()
    # The program runs from the checkout root and sees relative paths, so
    # its output does not depend on where the checkout lies.
    def rel(path):
        return os.path.relpath(path, ROOT)

    ops = []
    for i, doc in enumerate(docs):
        path = work / "in" / doc.name
        path.write_text(doc.text, encoding="utf-8")
        ops.append({
            "index": i, "doc": doc.name, "path": rel(path),
            "out": rel(work / "out" / (doc.name + ".out")),
            "bytes": len(doc.text.encode("utf-8")),
            "argv": ["analyze", "--format", fmt, "--output", output,
                     "--config", rel(config), "--lexicon", rel(lexicon), rel(path)],
        })
    biggest = max(docs, key=lambda d: len(d.text))
    quarter = len(biggest.text) / 4
    cut = min((c for c in biggest.cuts if c > 0), key=lambda c: abs(c - quarter))
    plan = {
        "src": str(SRC), "format": fmt, "lexicon": rel(lexicon),
        "ops": ops, "exponent": {"doc": biggest.name, "cut": cut},
        "results": str(work / "results.json"), "trace_file": str(work / "trace.jsonl"),
    }
    return docs, plan, config, lexicon


def _setup_seconds(config: Path, lexicon: Path) -> list[float]:
    """Fresh-interpreter set-up times; the first run (which may compile
    bytecode) is discarded."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config), str(lexicon)],
            capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout))
    return times[1:]


def _measure(plan: dict, work: Path) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(work / "measure.stderr", "w", encoding="utf-8") as err:
        try:
            done = subprocess.run([sys.executable, str(BENCH / "measure.py"), str(plan_path)],
                                  cwd=ROOT, stdout=err, stderr=err, timeout=150,
                                  check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("measuring process ran past 150 s") from exc
    if done.returncode != 0:
        tail = (work / "measure.stderr").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"measuring process exited {done.returncode}:\n{tail}")
    return json.loads(Path(plan["results"]).read_text(encoding="utf-8"))


def _check(workload, docs, plan, config, modules, records) -> tuple[int, list[str]]:
    """Check each document's output once, then every operation against it:
    an operation fails when its exit code or output bytes differ from a
    document whose output passed every check."""
    fmt, output, _, _ = WORKLOADS[workload]
    overrides = checks.parse_config(config.read_text(encoding="utf-8"))
    effective = {**dataclasses.asdict(modules["config"].AnalysisConfig()), **overrides}
    lex = modules["lexicon"].load_lexicon_extensions(
        str(ROOT / plan["lexicon"]), modules["lexicon"].default_lexicon())
    reporting = modules["reporting"]
    problems: list[str] = []
    verdict = {}
    last = {r[0]: r for r in records}
    for op, doc in zip(plan["ops"], docs):
        data = (ROOT / op["path"]).read_bytes()
        out_bytes = (ROOT / op["out"]).read_bytes()
        _, _, rc, digest = last[op["index"]]
        ctx = checks.Context(op["path"], data, doc.expected(), effective)
        out = out_bytes.decode("utf-8", errors="replace")
        if output == "human":
            found = checks.check_human(out, rc, ctx)
        else:
            found = checks.check_machine(out, rc, ctx, reporting.parse_machine,
                                         reporting.render_machine)
        try:
            parsed = modules["document"].parse_document(
                data.decode("utf-8"), fmt, lexicon=lex,
                words_per_page=effective["words_per_page"])
            found += checks.check_totals(parsed, doc.expected())
        except ValueError as exc:  # DocumentStructureError included
            found.append(f"parse_document rejects the input: {exc}")
        problems += [f"{op['doc']}: {p}" for p in found]
        verdict[op["index"]] = (not found, rc, digest)
    failed = 0
    for index, _, rc, digest in records:
        ok, good_rc, good_digest = verdict[index]
        if not ok or rc != good_rc or digest != good_digest:
            failed += 1
    return failed, problems


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict, plan: dict, setup: list[float]) -> dict:
    sizes = {op["index"]: op["bytes"] for op in plan["ops"]}
    times = [r[1] for r in result["records"]]
    busy = sum(times)
    analysed = sum(sizes[r[0]] for r in result["records"])
    return {
        "setup_s": statistics.median(setup),
        "mb_per_s": analysed / 1e6 / busy,
        "docs_per_s": len(times) / busy,
        "doc_p50_s": statistics.median(times),
        "doc_p95_s": _percentile(times, 0.95),
        "peak_rss_mb": result["peak_rss_mb"],
    }


UNITS = {
    "setup_s": "s", "mb_per_s": "MB/s", "docs_per_s": "1/s", "doc_p50_s": "s",
    "doc_p95_s": "s", "peak_rss_mb": "MB",
    "document.tokens_per_s": "1/s", "document.retained_mb": "MB",
    "document.parse_exponent": "exponent", "lexicon.stems_per_word": "stems/word",
    "reporting.output_bytes": "bytes",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = _import_program()
        work = WORK / f"{args.workload}-{args.seed}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        docs, plan, config, lexicon = _write_inputs(args.workload, args.seed, work)
        plan["seconds"] = args.seconds
        plan["trace"] = bool(args.trace)
        setup = [] if args.trace else _setup_seconds(config, lexicon)
        result = _measure(plan, work)
        failed, problems = _check(args.workload, docs, plan, config, modules,
                                  result["records"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... {len(problems) - 20} more", file=sys.stderr)
    metrics = result["layers"] if args.trace else end_to_end(result, plan, setup)
    summary = {
        "correct": failed == 0,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    (work / "summary.json").write_text(json.dumps({**summary, "rounds": result["rounds"],
                                                   "round_walls": result["round_walls"],
                                                   "exponent": result.get("exponent")},
                                                  indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
