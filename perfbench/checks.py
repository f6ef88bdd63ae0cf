"""Checks on one analysed document.

Each check compares the program's output with the generator's bookkeeping or
with a property of the method, never with saved program output. A check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right

from gen import fair_footnotes


def parse_config(text: str) -> dict:
    """The benchmark's own reading of a flat ``key = value`` config file."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        value = value.strip()
        out[key.strip()] = int(value) if re.fullmatch(r"[+-]?\d+", value) else float(value)
    return out


class Context:
    """What the checks know about one document: its bytes, the generator's
    bookkeeping and the effective analysis config."""

    def __init__(self, path: str, data: bytes, expected: dict, config: dict):
        self.path = path
        self.data = data
        self.expected = expected
        self.config = config
        self.line_starts = [0] + [m.end() for m in re.finditer(rb"\n", data)]

    def locate(self, offset: int) -> tuple[int, int]:
        i = bisect_right(self.line_starts, offset) - 1
        return i + 1, offset - self.line_starts[i] + 1

    def planted_long(self) -> list[tuple]:
        return [tuple(p) for p in self.expected["long"]]

    def footnotes_over_budget(self) -> bool:
        exp, cfg = self.expected, self.config
        return exp["footnotes"] > fair_footnotes(exp["words"], cfg["footnote_ratio"],
                                                 cfg["words_per_page"])


def _method_properties(ctx: Context, rc: int, rules: list[str], located: list[tuple],
                       maladies: list[str], findings: int) -> list[str]:
    """Checks shared by both output forms. located holds (line, column,
    rule) in output order."""
    problems = []
    if rc != (1 if findings else 0):
        problems.append(f"exit code {rc} with {findings} finding(s) reported")
    if located != sorted(located):
        problems.append("diagnostics are not ordered by position, then rule id")
    if "S702" in rules and "RhetoricRisk" not in maladies:
        problems.append("S702 reported without a RhetoricRisk malady")
    if ("S601" in rules) != ctx.footnotes_over_budget():
        problems.append(f"S601 {'reported' if 'S601' in rules else 'missing'} for "
                        f"{ctx.expected['footnotes']} footnotes over "
                        f"{ctx.expected['words']} words")
    return problems


_HUMAN_LINE = re.compile(
    r"(?P<line>\d+):(?P<col>\d+) (?P<rule>S\d{3}) (?P<message>.*) "
    r"\((?P<measured>[^()]*)/(?P<threshold>[^()]*)\) \[treat: [^\]]+\]"
)
_HUMAN_MALADY = re.compile(r"  (?P<kind>\w+) \(strength \d+\): .*")


def check_human(out: str, rc: int, ctx: Context) -> list[str]:
    lines = out.splitlines()
    if not lines:
        return ["empty output"]
    head = lines[0]
    if head == f"{ctx.path}: no findings":
        declared = (0, 0)
    else:
        m = re.fullmatch(re.escape(ctx.path) + r": (\d+) finding\(s\), (\d+) malady\(ies\)",
                         head)
        if not m:
            return [f"bad header line {head!r}"]
        declared = (int(m.group(1)), int(m.group(2)))
    problems = []
    located, rules, long_found, maladies = [], [], [], []
    text_lines = ctx.data.split(b"\n")
    prefix = ctx.path + ":"
    for line in lines[1:]:
        m = _HUMAN_MALADY.fullmatch(line)
        if m:
            maladies.append(m.group("kind"))
            continue
        m = _HUMAN_LINE.fullmatch(line[len(prefix):]) if line.startswith(prefix) else None
        if not m:
            problems.append(f"unparsed output line {line!r}")
            continue
        ln, col, rule = int(m.group("line")), int(m.group("col")), m.group("rule")
        if not (1 <= ln <= len(text_lines) and 1 <= col <= len(text_lines[ln - 1])):
            problems.append(f"{rule} at {ln}:{col} lies outside the file")
        located.append((ln, col, rule))
        rules.append(rule)
        if rule == "S101":
            long_found.append((ln, col, int(m.group("measured"))))
            if float(m.group("threshold")) != ctx.config["max_sentence_words"]:
                problems.append(f"S101 threshold {m.group('threshold')}")
    if declared != (len(rules), len(maladies)):
        problems.append(f"header declares {declared}, lines give "
                        f"{(len(rules), len(maladies))}")
    planted = [(line, col, n) for _, _, line, col, n in ctx.planted_long()]
    if long_found != planted:
        problems.append(f"S101 at {long_found[:3]}... ({len(long_found)}), planted "
                        f"{planted[:3]}... ({len(planted)})")
    problems += _method_properties(ctx, rc, rules, located, maladies,
                                   len(rules) + len(maladies))
    return problems


def check_machine(out: str, rc: int, ctx: Context, parse_machine, render_machine) -> list[str]:
    try:
        data = json.loads(out)
        return _check_report(data, out, rc, ctx, parse_machine, render_machine)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"machine output does not parse: {exc!r}"]


def _check_report(data: dict, out: str, rc: int, ctx: Context, parse_machine,
                  render_machine) -> list[str]:
    problems = []
    if data["document"] != ctx.path:
        problems.append(f"document {data['document']!r}")
    if data["config"] != ctx.config:
        problems.append(f"config echo {data['config']} != {ctx.config}")
    size = len(ctx.data)
    located, rules, long_found = [], [], []
    for d in data["diagnostics"]:
        rule = d["rule_id"]
        rules.append(rule)
        located.append((d["start_byte"], rule))
        for span in [d] + d["evidence"]:
            start, end = span["start_byte"], span["end_byte"]
            if not 0 <= start < end <= size:
                problems.append(f"{rule} span [{start}, {end}) outside [0, {size})")
            elif (span["line"], span["column"]) != ctx.locate(start):
                problems.append(f"{rule} span at {start} says {span['line']}:"
                                f"{span['column']}, recount gives {ctx.locate(start)}")
        if rule == "S101":
            long_found.append((d["start_byte"], d["end_byte"], d["line"], d["column"],
                               d["measured"]))
            if d["threshold"] != ctx.config["max_sentence_words"]:
                problems.append(f"S101 threshold {d['threshold']}")
    if long_found != ctx.planted_long():
        problems.append(f"S101 {long_found[:2]}... ({len(long_found)}), planted "
                        f"{ctx.planted_long()[:2]}... ({len(ctx.planted_long())})")
    maladies = [m["kind"] for m in data["maladies"]]
    problems += _method_properties(ctx, rc, rules, located, maladies,
                                   len(rules) + len(maladies))
    if render_machine(parse_machine(out)) != out:
        problems.append("parse_machine then render_machine changes the bytes")
    return problems


def check_totals(doc, expected: dict) -> list[str]:
    """Sentence, paragraph, word and footnote totals of a parsed Document
    against the generator's counts."""
    got = {
        "sentences": sum(1 for _ in doc.iter_sentences()),
        "paragraphs": sum(1 for _ in doc.iter_paragraphs()),
        "words": doc.total_words,
        "footnotes": len(doc.footnotes),
    }
    return [f"{key}: parsed {got[key]}, generated {expected[key]}"
            for key in got if got[key] != expected[key]]
