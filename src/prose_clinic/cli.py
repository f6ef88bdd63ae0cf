"""Command line entry point.

Exit codes: 0 clean, 1 findings reported, 2 usage or input error, output
closed early, or a stdout that cannot encode the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .config import AnalysisConfig, ConfigError, load_config
from .detectors import run_all, select_rules
from .document import FORMATS, MARKDOWN, DocumentStructureError, parse_document
from .lexicon import LexiconError, default_lexicon, load_lexicon_extensions
from .maladies import extract_keywords, infer_maladies
from .reporting import build_report, render_human, render_machine


# Built once per process: parse_args does not change the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clinic",
        description="Locate surface writing symptoms in a manuscript and "
                    "infer the maladies behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="analyze one or more documents")
    analyze.add_argument("paths", nargs="+", metavar="PATH")
    analyze.add_argument("--format", choices=sorted(FORMATS), default=MARKDOWN,
                         help="input format (default: markdown)")
    analyze.add_argument("--output", choices=("human", "machine"),
                         default="human",
                         help="human lines or machine JSON (default: human)")
    analyze.add_argument("--config", metavar="FILE",
                         help="threshold overrides, one key = value per line")
    analyze.add_argument("--rules", metavar="IDS",
                         help="comma-separated rule ids to run (default: all)")
    analyze.add_argument("--lexicon", metavar="FILE",
                         help="extra lexicon entries, grouped under "
                              "[class] headers")
    thresholds = analyze.add_argument_group(
        "thresholds", "override any analysis threshold (highest precedence)",
    )
    for field in dataclasses.fields(AnalysisConfig):
        is_int = field.type == "int"
        thresholds.add_argument(
            "--" + field.name.replace("_", "-"),
            type=int if is_int else float,
            default=None,
            metavar="N" if is_int else "X",
            help=f"override {field.name}",
        )
    return parser


def _assemble_config(args) -> AnalysisConfig:
    cfg = AnalysisConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    overrides = {
        field.name: value
        for field in dataclasses.fields(AnalysisConfig)
        if (value := getattr(args, field.name)) is not None
    }
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _display_name(path: str) -> str:
    """The path, or a message naming one, as printed. A byte of the name that
    is not UTF-8 reaches Python as a lone surrogate, which a strict UTF-8
    stream cannot write, so it is shown as a \\xNN escape instead."""
    return path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        rules = None
        if args.rules is not None:
            rules = select_rules(part.strip() for part in args.rules.split(",")
                                 if part.strip())
            if not rules:
                raise ValueError("--rules names no rule id")
        lexicon = default_lexicon()
        if args.lexicon:
            lexicon = load_lexicon_extensions(args.lexicon, lexicon)
    except (ConfigError, LexiconError, ValueError) as exc:
        # A config or lexicon file name is part of the message.
        print(f"clinic: {_display_name(str(exc))}", file=sys.stderr)
        return 2

    failed = False
    found_anything = False
    try:
        for path in args.paths:
            name = _display_name(path)
            try:
                # utf-8-sig drops a leading byte-order mark, which would
                # otherwise read as the first character of the text.
                with open(path, encoding="utf-8-sig") as fh:
                    source = fh.read()
                doc = parse_document(source, args.format, lexicon=lexicon,
                                     words_per_page=cfg.words_per_page)
            except OSError as exc:
                print(f"clinic: {name}: {exc.strerror or exc}", file=sys.stderr)
                failed = True
                continue
            except (UnicodeDecodeError, DocumentStructureError) as exc:
                print(f"clinic: {name}: {exc}", file=sys.stderr)
                failed = True
                continue
            diagnostics = run_all(doc, cfg, rules=rules)
            keywords = extract_keywords(doc, cfg)
            findings = infer_maladies(doc, diagnostics, cfg, keywords)
            report = build_report(name, cfg, diagnostics, findings)
            if args.output == "machine":
                sys.stdout.write(render_machine(report))
            else:
                sys.stdout.write(render_human(report))
            if diagnostics or findings:
                found_anything = True
        # Flush inside the try, so that a reader that went away is seen here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The idiom of the Python signal docs: Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    except UnicodeEncodeError as exc:
        print(f"clinic: stdout cannot encode the output: {exc}", file=sys.stderr)
        return 2
    if failed:
        return 2
    return 1 if found_anything else 0


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
