"""Tests of the benchmark itself: seeded inputs are reproducible, every
check rejects a deliberately corrupted report, and a run prints exactly the
metrics BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run as bench  # noqa: E402
from prose_clinic import cli  # noqa: E402
from prose_clinic.config import AnalysisConfig  # noqa: E402
from prose_clinic.document import parse_document  # noqa: E402
from prose_clinic.lexicon import default_lexicon, load_lexicon_extensions  # noqa: E402
from prose_clinic.reporting import parse_machine, render_machine  # noqa: E402

DEFAULTS = dataclasses.asdict(AnalysisConfig())


def small(workload, seed=7):
    if workload == "monograph":
        return [gen.monograph(seed, size=24_000)]
    if workload == "submissions":
        return gen.submissions(seed, count=3)
    return [gen.symptom_dense(seed, size=12_000)]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = [d.text.encode() for d in small(workload)]
    again = [d.text.encode() for d in small(workload)]
    other = [d.text.encode() for d in small(workload, seed=8)]
    assert first == again
    assert first != other


def test_full_size_inputs_are_reproducible():
    assert gen.monograph(3).text == gen.monograph(3).text


def analyse(tmp_path, workload, doc):
    fmt, output, config_text, lexicon_text = bench.WORKLOADS[workload]
    config = tmp_path / "w.cfg"
    lexicon = tmp_path / "w.lex"
    config.write_text(config_text)
    lexicon.write_text(lexicon_text)
    path = tmp_path / doc.name
    path.write_text(doc.text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(["analyze", "--format", fmt, "--output", output, "--config",
                      str(config), "--lexicon", str(lexicon), str(path)])
    effective = {**DEFAULTS, **checks.parse_config(config_text)}
    ctx = checks.Context(str(path), path.read_bytes(), doc.expected(), effective)
    lex = load_lexicon_extensions(str(lexicon), default_lexicon())
    parsed = parse_document(doc.text, fmt, lexicon=lex,
                            words_per_page=effective["words_per_page"])
    return buf.getvalue(), rc, ctx, parsed


def machine_problems(out, rc, ctx):
    return checks.check_machine(out, rc, ctx, parse_machine, render_machine)


@pytest.fixture
def dense(tmp_path):
    doc = small("symptom-dense")[0]
    out, rc, ctx, parsed = analyse(tmp_path, "symptom-dense", doc)
    assert machine_problems(out, rc, ctx) == []
    assert checks.check_totals(parsed, doc.expected()) == []
    data = json.loads(out)
    rules = {d["rule_id"] for d in data["diagnostics"]}
    assert {"S101", "S103", "S201", "S302", "S701", "S702"} <= rules
    return out, rc, ctx, data


def redump(data):
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def test_machine_check_rejects_shifted_span(dense):
    _, rc, ctx, data = dense
    data["diagnostics"][0]["start_byte"] += 1
    assert any("recount" in p for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_span_out_of_bounds(dense):
    _, rc, ctx, data = dense
    data["diagnostics"][-1]["evidence"].append(
        {"start_byte": len(ctx.data), "end_byte": len(ctx.data) + 3, "line": 1, "column": 1})
    assert any("outside" in p for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_dropped_finding(dense):
    _, rc, ctx, data = dense
    first = next(i for i, d in enumerate(data["diagnostics"]) if d["rule_id"] == "S101")
    del data["diagnostics"][first]
    assert any(p.startswith("S101") for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_wrong_exit_code(dense):
    out, _, ctx, _ = dense
    assert any("exit code" in p for p in machine_problems(out, 0, ctx))


def test_machine_check_rejects_misordered_diagnostics(dense):
    _, rc, ctx, data = dense
    data["diagnostics"].reverse()
    assert any("ordered" in p for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_missing_rhetoric_risk(dense):
    _, rc, ctx, data = dense
    data["maladies"] = [m for m in data["maladies"] if m["kind"] != "RhetoricRisk"]
    assert any("RhetoricRisk" in p for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_config_echo(dense):
    _, rc, ctx, data = dense
    data["config"]["max_pages"] = 21.0
    assert any("config echo" in p for p in machine_problems(redump(data), rc, ctx))


def test_machine_check_rejects_unstable_rendering(dense):
    out, rc, ctx, _ = dense
    compact = json.dumps(json.loads(out)) + "\n"
    assert any("render_machine" in p for p in machine_problems(compact, rc, ctx))


def test_machine_check_rejects_truncated_report(dense):
    out, rc, ctx, data = dense
    del data["diagnostics"][0]["evidence"]
    assert machine_problems(redump(data), rc, ctx)[0].startswith("machine output does not")
    assert machine_problems(out[: len(out) // 2], rc, ctx)[0].startswith("machine output")


def test_machine_check_rejects_wrong_footnote_verdict(tmp_path):
    doc = small("submissions")[0]
    out, rc, ctx, _ = analyse(tmp_path, "submissions", doc)
    assert machine_problems(out, rc, ctx) == []
    flipped = 0 if ctx.footnotes_over_budget() else ctx.expected["footnotes"] + 40
    ctx.expected = {**ctx.expected, "footnotes": flipped}
    assert any(p.startswith("S601") for p in machine_problems(out, rc, ctx))


def test_totals_check_rejects_wrong_counts(tmp_path):
    doc = small("submissions")[0]
    _, _, _, parsed = analyse(tmp_path, "submissions", doc)
    for key in ("sentences", "paragraphs", "words", "footnotes"):
        wrong = {**doc.expected(), key: doc.expected()[key] + 1}
        assert [p.split(":")[0] for p in checks.check_totals(parsed, wrong)] == [key]


@pytest.fixture
def monograph(tmp_path):
    doc = small("monograph")[0]
    out, rc, ctx, parsed = analyse(tmp_path, "monograph", doc)
    assert doc.long and doc.footnotes
    assert checks.check_human(out, rc, ctx) == []
    assert checks.check_totals(parsed, doc.expected()) == []
    return out, rc, ctx


def test_human_check_rejects_dropped_finding(monograph):
    out, rc, ctx = monograph
    lines = out.splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if " S101 " in line)
    problems = checks.check_human("".join(lines[:dropped] + lines[dropped + 1:]), rc, ctx)
    assert any("header" in p for p in problems)
    assert any(p.startswith("S101") for p in problems)


def test_human_check_rejects_shifted_line(monograph):
    out, rc, ctx = monograph
    line = next(x for x in out.splitlines() if " S101 " in x)
    where = line[len(ctx.path) + 1:].split(" ")[0]
    ln, col = where.split(":")
    shifted = out.replace(line, line.replace(f":{ln}:{col} ", f":{int(ln) + 1}:{col} ", 1))
    assert any(p.startswith("S101") for p in checks.check_human(shifted, rc, ctx))


def test_human_check_rejects_wrong_exit_code(monograph):
    out, _, ctx = monograph
    assert any("exit code" in p for p in checks.check_human(out, 0, ctx))


def test_parse_config_reads_values():
    assert checks.parse_config("# c\nmax_pages = 640\nfootnote_ratio=0.5 # x\n") == {
        "max_pages": 640, "footnote_ratio": 0.5}


def declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declared_workloads_exist():
    assert sorted(declared()[2]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "_generate", lambda workload, seed: small(workload, seed))
    assert bench.main(["--workload", "submissions", "--seed", "1", "--seconds", "0.01",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * (1 + trace)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared()[trace]
    if trace:
        spans = [json.loads(line) for line in (tmp_path / "submissions-1" / "trace.jsonl")
                 .read_text().splitlines()]
        names = {s["name"] for s in spans if "name" in s}
        assert {"cli.run", "document.parse", "detectors.run_all", "detectors.S101"} <= names
        parents = {s["span"]: s for s in spans if "span" in s and "name" in s}
        rule = next(s for s in parents.values() if s["name"] == "detectors.S101")
        assert parents[rule["parent"]]["name"] == "detectors.run_all"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "monograph",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "prose_clinic" in done.stderr
