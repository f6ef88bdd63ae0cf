"""Exit code and stdout digest of ``clinic analyze`` on every benchmark input.

    python3 tools/equivalence.py --seed 1 > change.txt
    python3 tools/equivalence.py --src ../parent/src --seed 1 > parent.txt
    diff parent.txt change.txt

Generates the seed-N inputs of the three perfbench workloads as
perfbench/run.py does, then runs ``prose_clinic.cli.run`` from the package
under --src on each of them with its workload's format, config and lexicon
(from run.py's WORKLOADS), once per output form. Prints one line per case:

    workload doc form exit sha256-of-stdout

Two trees whose lines agree give byte-identical output on these inputs. The
inputs are written to a temporary directory and named by relative paths from
there, so the output does not depend on where the directory lies.

The seed-1, seed-2 and seed-3 lines are recorded in
tests/golden/equivalence-seed1.txt, equivalence-seed2.txt and
equivalence-seed3.txt, and a tier-1 test (tests/test_golden.py) compares
the tree's lines with those files. Record them again only for an intended
output change:

    python3 tools/equivalence.py --seed 1 > tests/golden/equivalence-seed1.txt
    python3 tools/equivalence.py --seed 2 > tests/golden/equivalence-seed2.txt
    python3 tools/equivalence.py --seed 3 > tests/golden/equivalence-seed3.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

FORMS = ("human", "machine")


def _analyse(entry, argv) -> tuple[int, str]:
    """entry(argv) with stdout captured; returns the exit code and the
    SHA-256 of the UTF-8 bytes written."""
    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
    saved, sys.stdout = sys.stdout, out
    try:
        rc = entry(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        out.flush()
        sys.stdout = saved
    return rc, hashlib.sha256(buffer.getvalue()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the prose_clinic package (default: ./src)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from prose_clinic import cli

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for workload, (fmt, _, config, lexicon) in run.WORKLOADS.items():
            os.mkdir(workload)
            cfg_path = os.path.join(workload, "workload.cfg")
            lex_path = os.path.join(workload, "workload.lex")
            Path(cfg_path).write_text(config, encoding="utf-8")
            Path(lex_path).write_text(lexicon, encoding="utf-8")
            for doc in run._generate(workload, args.seed):
                path = os.path.join(workload, doc.name)
                Path(path).write_text(doc.text, encoding="utf-8")
                for form in FORMS:
                    rc, digest = _analyse(cli.run, [
                        "analyze", "--format", fmt, "--output", form,
                        "--config", cfg_path, "--lexicon", lex_path, path])
                    print(workload, doc.name, form, rc, digest, flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
