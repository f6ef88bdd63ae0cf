"""Byte-for-byte output of ``clinic analyze`` on a fixed corpus.

The corpus is built from the hand-counted passages, stays ASCII, and trips
every rule S101-S702 and every malady. Each case's stdout and exit code are
recorded under ``tests/golden/``; a refactor must reproduce them exactly. To
record them again after an intended output change, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from prose_clinic.cli import run

from docbuild import (
    FILLER,
    INTENSITY_ADJ,
    INTENSITY_ADV,
    SURVEY,
    composite_document,
    note_definitions,
    with_marker,
)
from passages import (
    DETAIL_FIRST_PARAGRAPH,
    FIRESIDE_DELAYED,
    FIRESIDE_INTERRUPTED,
    RATE_ORIGINAL,
    STORYLINE_BROKEN_OPENERS,
    STROSIS_UNLINKED,
    SUPERLATIVE_PASSAGE,
    TRAIL_ORIGINAL,
)

GOLDEN = Path(__file__).parent / "golden"
EQUIVALENCE = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"

GROWN = " ".join(["The spores grew."] * 7)

# Opening section: storyline breaks, a footnote, an intensity family and
# superlatives (FaultyRAP, RhetoricRisk); then chunking symptoms in three
# paragraphs (PoorChunking) and an off-topic section (MissingRapRelevance).
OPENING = [
    " ".join([STORYLINE_BROKEN_OPENERS[0], TRAIL_ORIGINAL,
              with_marker(RATE_ORIGINAL, "1")]),
    " ".join([STORYLINE_BROKEN_OPENERS[1], FIRESIDE_INTERRUPTED,
              FIRESIDE_DELAYED, INTENSITY_ADJ, INTENSITY_ADV]),
    " ".join([STORYLINE_BROKEN_OPENERS[2], SUPERLATIVE_PASSAGE]),
]
BASIS = [STROSIS_UNLINKED, GROWN, GROWN, DETAIL_FIRST_PARAGRAPH]
SURVEY_SECTION = [SURVEY + " " + FILLER]

# Markdown layout, CRLF throughout: blank lines that hold only spaces and
# tabs, "\r", "\x0b" or "\x0c"; "#x" and "####### x" lines, which are body
# text; a heading with closing hashes and a marker, directly followed by
# text; and a definition whose body follows a tab and ends in "\r".
LAYOUT = "\r\n".join([
    STORYLINE_BROKEN_OPENERS[0] + " " + TRAIL_ORIGINAL,
    " \t ",
    "#x marks no heading. " + STORYLINE_BROKEN_OPENERS[1],
    "####### x marks none either. " + FIRESIDE_INTERRUPTED,
    "\r",
    "## Results[^1] ##",
    STROSIS_UNLINKED,
    "\x0b",
    GROWN,
    "\x0c",
    DETAIL_FIRST_PARAGRAPH,
    "\t",
    "[^1]:\tA note on the results.\r",
]) + "\r\n"


def corpus() -> dict[str, str]:
    symptoms_md = "\n\n".join(
        ["# Strosis and the model", *OPENING, "## Basis", *BASIS,
         "## Survey", *SURVEY_SECTION, note_definitions(["1"])]
    ) + "\n"
    plain_opening = [p.replace("[^1]", "") for p in OPENING]
    symptoms_txt = "\n\n".join(plain_opening + BASIS + SURVEY_SECTION) + "\n"
    return {
        "clean.txt": FILLER + "\n",
        "symptoms.md": symptoms_md,
        "symptoms.txt": symptoms_txt,
        "composite.md": composite_document(),
        "layout.md": LAYOUT,
    }


CASES = {
    "clean": ["analyze", "clean.txt"],
    "markdown-human": ["analyze", "symptoms.md"],
    "markdown-machine": ["analyze", "--output", "machine", "symptoms.md"],
    "plain-human": ["analyze", "--format", "plain", "symptoms.txt"],
    "plain-machine": ["analyze", "--format", "plain", "--output", "machine",
                      "symptoms.txt"],
    "multi-path": ["analyze", "clean.txt", "symptoms.md", "composite.md"],
    "max-pages": ["analyze", "--max-pages", "25", "composite.md"],
    "rules-filter": ["analyze", "--rules", "S601,S101", "symptoms.md"],
    "layout-human": ["analyze", "layout.md"],
    "layout-machine": ["analyze", "--output", "machine", "layout.md"],
}


def run_case(directory: Path, name: str) -> tuple[int, bytes, str]:
    """Run one case with the corpus files in directory as the working
    directory; returns (exit code, stdout bytes, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(CASES[name])
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def write_corpus(directory: Path) -> None:
    for name, text in corpus().items():
        (directory / name).write_text(text, encoding="ascii")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_corpus(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(corpus_dir, name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, out, err = run_case(corpus_dir, name)
    assert err == ""
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_corpus_trips_every_rule_and_malady():
    recorded = b"".join((GOLDEN / f"{name}.out").read_bytes() for name in CASES)
    rules = ("S101", "S102", "S103", "S201", "S301", "S302", "S401", "S501",
             "S601", "S701", "S702")
    maladies = ("FaultyRAP", "PoorChunking", "MissingRapRelevance",
                "RhetoricRisk")
    for name in rules + maladies:
        assert f" {name} ".encode() in recorded, name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalence_tool_reproduces_its_recording(seed):
    """tools/equivalence.py on this tree prints the recorded lines of the
    seed: every benchmark input's exit code and stdout digest in both output
    forms."""
    done = subprocess.run([sys.executable, str(EQUIVALENCE), "--seed", str(seed)],
                          capture_output=True, check=False)
    assert done.returncode == 0, done.stderr.decode()
    recorded = (GOLDEN / f"equivalence-seed{seed}.txt").read_bytes()
    assert recorded and all(line.split()[3] in (b"0", b"1") for line in recorded.splitlines())
    assert done.stdout == recorded


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
        for name in sorted(CASES):
            codes[name], out, err = run_case(Path(tmp), name)
            assert err == "", err
            (GOLDEN / f"{name}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
