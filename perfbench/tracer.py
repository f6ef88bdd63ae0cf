"""Spans around the calls prose_clinic.cli makes into each module.

The tracer replaces module attributes with timing wrappers while a traced
round runs and puts the originals back afterwards, so the program's own code
is never edited and the untraced rounds run it untouched. Each span records
its name, start, end, parent span and document id; spans stay in memory and
are written out once the run ends. Garbage-collector pauses are observed
through ``gc.callbacks`` during traced rounds only.
"""

from __future__ import annotations

import gc
import importlib
import json
from time import perf_counter

# Attribute of prose_clinic.cli -> span name. These are the public names
# cli.run calls, looked up in the cli module's namespace at call time.
CLI_CALLS = {
    "load_config": "config.load",
    "default_lexicon": "lexicon.default",
    "load_lexicon_extensions": "lexicon.load",
    "parse_document": "document.parse",
    "run_all": "detectors.run_all",
    "extract_keywords": "maladies.extract_keywords",
    "infer_maladies": "maladies.infer",
    "build_report": "reporting.build_report",
    "render_human": "reporting.render_human",
    "render_machine": "reporting.render_machine",
}

RULE_IDS = ("S101", "S102", "S103", "S201", "S301", "S302",
            "S401", "S501", "S601", "S701", "S702")

PACKAGE_MODULES = ("cli", "config", "detectors", "document", "lexicon",
                   "maladies", "reporting")


class MissingName(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, doc]
        self.gc_events: list[tuple] = []  # (generation, start, end, span)
        self.stack: list[int] = []
        self.doc: str | None = None
        self.stem_calls = 0
        self.results: dict[str, object] = {}
        self._saved: list[tuple] = []
        self._gc_start = 0.0

        self.modules = {}
        for name in PACKAGE_MODULES:
            try:
                self.modules[name] = importlib.import_module(f"prose_clinic.{name}")
            except ImportError as exc:
                raise MissingName(f"cannot import prose_clinic.{name}: {exc}") from exc
        cli = self.modules["cli"]
        for attr in CLI_CALLS:
            if not callable(getattr(cli, attr, None)):
                raise MissingName(f"prose_clinic.cli no longer calls {attr}")
        rules = getattr(self.modules["detectors"], "RULES", None)
        if not isinstance(rules, dict) or set(RULE_IDS) - set(rules):
            raise MissingName("prose_clinic.detectors.RULES lacks rules "
                              + ", ".join(sorted(set(RULE_IDS) - set(rules or ()))))
        self.stem = getattr(self.modules["lexicon"], "stem", None)
        if not callable(self.stem):
            raise MissingName("prose_clinic.lexicon.stem is missing")

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, keep: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.doc]
            tracer.stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if keep:
                tracer.results[name] = result
            return result

        return traced

    def _swap(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        cli = self.modules["cli"]
        for attr, name in CLI_CALLS.items():
            self._swap(cli, attr, self.wrap(name, getattr(cli, attr), keep=True))
        rules = self.modules["detectors"].RULES
        for rule_id in RULE_IDS:
            self._swap(rules, rule_id, self.wrap(f"detectors.{rule_id}", rules[rule_id]))

        # stem runs per word, so it is counted, not spanned, wherever a
        # module has imported it by name.
        stem = self.stem
        tracer = self

        def counted_stem(word):
            tracer.stem_calls += 1
            return stem(word)

        for module in self.modules.values():
            if getattr(module, "stem", None) is stem and module is not self.modules["lexicon"]:
                self._swap(module, "stem", counted_stem)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, key, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_events.append((info["generation"], self._gc_start, perf_counter(),
                                   self.stack[-1] if self.stack else -1))

    def dump(self, path: str) -> None:
        """Write every span, with its self time, and every GC pause as JSON
        lines."""
        child = self.child_time()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, doc) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc,
                                     "self": end - start - child[i]}) + "\n")
            for gen, start, end, span in self.gc_events:
                fh.write(json.dumps({"gc": gen, "start": start, "end": end,
                                     "span": span}) + "\n")

    # -- roll-ups --------------------------------------------------------

    def child_time(self) -> list[float]:
        """Per span, the time its direct children cover. Spans of one thread
        nest, so the children of a span never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def ancestors(self, index: int):
        while index >= 0:
            yield self.spans[index][0]
            index = self.spans[index][3]
