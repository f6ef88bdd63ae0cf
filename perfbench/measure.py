"""The measuring process: a closed loop of ``prose_clinic.cli.run`` calls.

Started by run.py in a fresh interpreter once every input is on disk:

    python3 perfbench/measure.py PLAN.json

One client, one thread: the next document starts only after the previous
report is written. Every run is whole rounds over the plan's documents. With
"trace" set, each document is analysed untraced and traced back to back and
the per-layer figures come from the traced calls; otherwise no wrapper,
callback or GC setting is touched.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from time import perf_counter

from tracer import RULE_IDS, MissingName, Tracer


def _call(run, argv) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def run_op(run, op, records) -> float:
    """Analyse one document; returns the seconds run took. Each record is
    [op, seconds, exit code, output digest]."""
    with open(op["out"], "w", encoding="utf-8") as fh:
        saved, sys.stdout = sys.stdout, fh
        try:
            t0 = perf_counter()
            rc = _call(run, op["argv"])
            t1 = perf_counter()
        finally:
            sys.stdout = saved
    records.append([op["index"], t1 - t0, rc, _digest(op["out"])])
    return t1 - t0


def run_round(run, ops, records) -> float:
    """Analyse every document of the plan once; returns the round's wall
    time."""
    started = perf_counter()
    for op in ops:
        run_op(run, op, records)
    return perf_counter() - started


def _deep_size(root) -> int:
    """Bytes of every object reachable from root, classes and modules aside."""
    seen = set()
    stack = [root]
    total = 0
    skip = (type, type(sys), type(_deep_size))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _timed(fn, budget: float = 0.3, limit: int = 200) -> float:
    """Median seconds of fn over repeats that fill about budget seconds."""
    times = []
    while not times or (sum(times) < budget and len(times) < limit):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class TracedRounds:
    """Per-layer figures of the traced rounds, one dict per round."""

    def __init__(self, plan):
        from prose_clinic import cli, document, reporting

        self.tracer = Tracer()
        self.plan = plan
        self.run = self.tracer.wrap("cli.run", cli.run)
        self.word_kind = document.WORD
        self.renderers = {"reporting.render_human": reporting.render_human,
                          "reporting.render_machine": reporting.render_machine}
        self.rounds: list[dict] = []
        self.retained: dict[str, int] = {}
        self.current: dict = {}

    def after_op(self, op) -> None:
        """Count what the traced call returned, outside every span."""
        got = self.tracer.results
        cur = self.current
        if "reporting.build_report" not in got:  # the CLI gave up early
            got.clear()
            return
        doc = got.pop("document.parse")
        tokens = words = sentences = 0
        for sentence in doc.iter_sentences():
            sentences += 1
            tokens += len(sentence.tokens)
            words += sum(1 for t in sentence.tokens if t.kind == self.word_kind)
        cur["document.tokens"] += tokens
        cur["document.sentences"] += sentences
        cur["document.paragraphs"] += sum(1 for _ in doc.iter_paragraphs())
        cur["words"] += words
        if op["doc"] not in self.retained:
            self.retained[op["doc"]] = _deep_size(doc)
        diagnostics = got.pop("detectors.run_all")
        cur["detectors.diagnostics"] += len(diagnostics)
        cur["detectors.evidence_spans"] += sum(len(d.evidence) for d in diagnostics)
        cur["maladies.findings"] += len(got.pop("maladies.infer"))
        report = got.pop("reporting.build_report")
        used = "reporting.render_machine" if "reporting.render_machine" in got else \
            "reporting.render_human"
        cur["reporting.output_bytes"] += len(got.pop(used).encode("utf-8"))
        # The renderer the CLI did not call, timed on the same report, so
        # both renderers read on every workload.
        other = ({"reporting.render_human", "reporting.render_machine"} - {used}).pop()
        render = self.renderers[other]
        t0 = perf_counter()
        render(report)
        cur["probe." + other] += perf_counter() - t0
        got.clear()

    def paired_round(self, untraced_run, ops, records) -> float:
        """Analyse every document twice, untraced and traced, one right after
        the other so that both calls see the same machine. Which goes first
        alternates from document to document and from round to round, so the
        second call's warm caches favour neither. Returns the round's wall
        time."""
        tracer = self.tracer
        first_span, first_gc = len(tracer.spans), len(tracer.gc_events)
        stems_before = tracer.stem_calls
        self.current = cur = {k: 0 for k in (
            "document.tokens", "document.sentences", "document.paragraphs", "words",
            "detectors.diagnostics", "detectors.evidence_spans", "maladies.findings",
            "reporting.output_bytes", "probe.reporting.render_human",
            "probe.reporting.render_machine", "untraced", "traced")}
        started = perf_counter()
        for i, op in enumerate(ops):
            traced_first = (i + len(self.rounds)) % 2 == 1
            for traced in (traced_first, not traced_first):
                if not traced:
                    cur["untraced"] += run_op(untraced_run, op, records)
                    continue
                tracer.doc = op["doc"]
                tracer.install()
                try:
                    cur["traced"] += run_op(self.run, op, records)
                finally:
                    tracer.uninstall()
                self.after_op(op)
        wall = perf_counter() - started
        cur["lexicon.stem_calls"] = tracer.stem_calls - stems_before
        self._rollup(cur, first_span, first_gc)
        self.rounds.append(cur)
        return wall

    def _rollup(self, cur, first_span, first_gc) -> None:
        tracer = self.tracer
        child = tracer.child_time()
        sums: dict[str, float] = {}
        cli_self = 0.0
        for i in range(first_span, len(tracer.spans)):
            name, start, end, _, _ = tracer.spans[i]
            sums[name] = sums.get(name, 0.0) + (end - start)
            if name == "cli.run":
                cli_self += end - start - child[i]
        cur["spans"] = sums
        cur["cli.self_s"] = cli_self
        pauses = {"document.parse": 0.0, "detectors.run_all": 0.0}
        gen2 = 0
        for gen, start, end, span in tracer.gc_events[first_gc:]:
            chain = list(tracer.ancestors(span))
            for layer in pauses:
                if layer in chain:
                    pauses[layer] += end - start
            if gen == 2 and "document.parse" in chain:
                gen2 += 1
        cur["document.gc_pause_s"] = pauses["document.parse"]
        cur["detectors.gc_pause_s"] = pauses["detectors.run_all"]
        cur["document.gc_gen2"] = gen2

    def probes(self) -> dict:
        """Figures timed directly rather than from spans: tokenize over each
        document's text, and the parse scaling exponent."""
        from prose_clinic import document, lexicon

        texts = {}
        for op in self.plan["ops"]:
            with open(op["path"], encoding="utf-8") as fh:
                texts[op["doc"]] = fh.read()
        tokenize_s = _timed(lambda: [document.tokenize(t) for t in texts.values()])
        lex = lexicon.load_lexicon_extensions(self.plan["lexicon"], lexicon.default_lexicon())
        big = self.plan["exponent"]
        text = texts[big["doc"]]
        prefix = text[: big["cut"]]

        def parse(t):
            return lambda: document.parse_document(t, self.plan["format"], lexicon=lex)

        # The prefix is timed on both sides of the whole, so that a drift in
        # machine speed during the probe cancels to first order.
        t_prefix = _timed(parse(prefix))
        t_full = _timed(parse(text))
        t_prefix = (t_prefix + _timed(parse(prefix))) / 2
        exponent = math.log(t_full / t_prefix) / math.log(len(text) / len(prefix))
        return ({"document.tokenize_s": tokenize_s, "document.parse_exponent": exponent},
                {"sizes": [len(prefix), len(text)], "parse_s": [t_prefix, t_full]})

    def metrics(self) -> dict:
        def med(key):
            return statistics.median(r[key] for r in self.rounds)

        def span(name):
            return statistics.median(r["spans"].get(name, 0.0) for r in self.rounds)

        parse_s = span("document.parse")
        out = {
            "document.parse_s": parse_s,
            "document.tokens": med("document.tokens"),
            "document.sentences": med("document.sentences"),
            "document.paragraphs": med("document.paragraphs"),
            "document.tokens_per_s": med("document.tokens") / parse_s,
            "document.retained_mb": max(self.retained.values()) / 1e6,
            "document.gc_gen2": med("document.gc_gen2"),
            "document.gc_pause_s": med("document.gc_pause_s"),
            "lexicon.stem_calls": med("lexicon.stem_calls"),
            "lexicon.stems_per_word": med("lexicon.stem_calls") / med("words"),
            "lexicon.load_s": span("lexicon.default") + span("lexicon.load"),
            "detectors.run_all_s": span("detectors.run_all"),
        }
        for rule_id in RULE_IDS:
            out[f"detectors.{rule_id}_s"] = span(f"detectors.{rule_id}")
        out.update({
            "detectors.gc_pause_s": med("detectors.gc_pause_s"),
            "detectors.diagnostics": med("detectors.diagnostics"),
            "detectors.evidence_spans": med("detectors.evidence_spans"),
            "maladies.extract_keywords_s": span("maladies.extract_keywords"),
            "maladies.infer_s": span("maladies.infer"),
            "maladies.findings": med("maladies.findings"),
            "reporting.build_report_s": span("reporting.build_report"),
            "reporting.render_human_s": (span("reporting.render_human")
                                         + med("probe.reporting.render_human")),
            "reporting.render_machine_s": (span("reporting.render_machine")
                                           + med("probe.reporting.render_machine")),
            "reporting.output_bytes": med("reporting.output_bytes"),
            "config.load_s": span("config.load"),
            "cli.run_s": span("cli.run"),
            "cli.self_s": med("cli.self_s"),
            "trace.overhead_s": statistics.median(r["traced"] - r["untraced"]
                                                  for r in self.rounds),
        })
        return out


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from prose_clinic import cli

    ops = plan["ops"]
    seconds = plan["seconds"]
    records: list = []
    result: dict = {}
    started = perf_counter()
    walls = []
    # Whole rounds; another starts only if it should end within the run.
    if not plan["trace"]:
        while not walls or perf_counter() - started + walls[-1] <= seconds:
            walls.append(run_round(cli.run, ops, records))
    else:
        try:
            traced = TracedRounds(plan)
        except MissingName as exc:
            print(f"perfbench: cannot trace: {exc}", file=sys.stderr)
            return 3
        while not walls or perf_counter() - started + walls[-1] <= seconds:
            walls.append(traced.paired_round(cli.run, ops, records))
        probed, result["exponent"] = traced.probes()
        result["layers"] = {**traced.metrics(), **probed}
        traced.tracer.dump(plan["trace_file"])
    result["rounds"] = len(walls)
    result["round_walls"] = walls
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(plan["results"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
