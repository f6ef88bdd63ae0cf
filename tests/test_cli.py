import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prose_clinic import cli, document
from prose_clinic.cli import run
from prose_clinic.config import AnalysisConfig
from prose_clinic.document import FORMATS
from prose_clinic.reporting import parse_machine, render_machine

# The names perfbench/tracer.py times in cli, read from the benchmark itself.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import CLI_CALLS  # noqa: E402

from docbuild import FILLER, FILLER_SHORT, INTENSITY_ADV, paragraphs
from passages import (
    FIRESIDE_GOOD,
    LORIMETER_ORIGINAL,
    STROSIS_UNLINKED,
    SUPERLATIVE_PASSAGE,
    TOPICS_ORIGINAL,
    TRAIL_ORIGINAL,
)


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def test_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.txt", FILLER + "\n")
    assert run(["analyze", path]) == 0
    out = capsys.readouterr()
    assert out.out == f"{path}: no findings\n"
    assert out.err == ""


def test_findings_exit_one(tmp_path, capsys):
    path = write(tmp_path, "notes.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert out.count(" S201 ") == 2
    assert out.splitlines()[0].startswith(f"{path}: 2 finding(s)")


def test_single_long_sentence_yields_one_s101(tmp_path, capsys):
    path = write(tmp_path, "long.txt", TRAIL_ORIGINAL + "\n")
    assert run(["analyze", path]) == 1
    out = capsys.readouterr().out
    assert out.count(" S101 ") == 1
    assert out.splitlines()[0] == f"{path}: 1 finding(s), 0 malady(ies)"


def test_machine_output_parses(tmp_path, capsys):
    path = write(tmp_path, "notes.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", "--output", "machine", path]) == 1
    report = parse_machine(capsys.readouterr().out)
    assert report.document == path
    assert [d.rule_id for d in report.diagnostics] == ["S201", "S201"]


def test_rules_filter(tmp_path, capsys):
    path = write(tmp_path, "a.txt", LORIMETER_ORIGINAL + "\n")
    assert run(["analyze", "--rules", "S101", "--output", "machine", path]) == 1
    report = parse_machine(capsys.readouterr().out)
    assert [d.rule_id for d in report.diagnostics] == ["S101"]


def test_unknown_rule_errors(tmp_path, capsys):
    path = write(tmp_path, "a.txt", FILLER)
    assert run(["analyze", "--rules", "S101,S999", path]) == 2
    assert "S999" in capsys.readouterr().err


@pytest.mark.parametrize("ids", ["", ","])
def test_empty_rules_list_errors(tmp_path, capsys, ids):
    path = write(tmp_path, "a.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", "--rules", ids, path]) == 2
    out = capsys.readouterr()
    assert "--rules" in out.err
    assert out.out == ""


def test_missing_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert run(["analyze", missing]) == 2
    assert missing in capsys.readouterr().err


def test_non_utf8_file_exits_two_without_traceback(tmp_path, capsys):
    target = tmp_path / "latin1.txt"
    target.write_bytes(b"Caf\xe9 is good.\n")
    assert run(["analyze", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert "Traceback" not in err


def test_undecodable_file_name_is_printed_escaped(tmp_path, capsys, monkeypatch):
    # A name byte that is not UTF-8 reaches Python as a lone surrogate, which
    # a strict UTF-8 stdout cannot write.
    raw = os.path.join(os.fsencode(tmp_path), b"caf\xe9.md")
    try:
        with open(raw, "w", encoding="utf-8") as fh:
            fh.write(STROSIS_UNLINKED + "\n")
    except OSError:
        pytest.skip("the file system refuses names that are not UTF-8")
    shown = os.path.join(str(tmp_path), "caf\\xe9.md")
    outputs = {}
    for output in ("human", "machine"):
        buffer = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(buffer, encoding="utf-8"))
        assert run(["analyze", "--output", output, os.fsdecode(raw)]) == 1
        sys.stdout.flush()
        outputs[output] = buffer.getvalue().decode("utf-8")
    assert outputs["human"].startswith(f"{shown}: 2 finding(s)")
    assert parse_machine(outputs["machine"]).document == shown
    missing = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"gone\xe9.md"))
    assert run(["analyze", missing]) == 2
    assert "gone\\xe9.md: " in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--config", b"nope\xe9.cfg"),
                                       ("--lexicon", b"nope\xe9.lex")])
def test_undecodable_option_file_name_is_printed_escaped(tmp_path, capsys, flag, name):
    path = write(tmp_path, "ok.txt", FILLER + "\n")
    missing = os.fsdecode(os.path.join(os.fsencode(tmp_path), name))
    assert run(["analyze", flag, missing, path]) == 2
    out = capsys.readouterr()
    shown = os.path.join(str(tmp_path), name.decode("ascii", "backslashreplace"))
    assert out.err == f"clinic: cannot read {flag[2:]} file {shown}: {os.strerror(errno.ENOENT)}\n"
    assert out.out == ""


def test_bad_file_does_not_stop_the_batch(tmp_path, capsys):
    bad = write(tmp_path, "bad.md", "The model holds[^x]. The model predicts.\n")
    ok = write(tmp_path, "ok.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", bad, ok]) == 2
    out = capsys.readouterr()
    assert bad in out.err
    assert out.out.startswith(f"{ok}: 2 finding(s)")


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert run(["analyze", path]) == 2
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_stdout_that_cannot_encode_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    # The human form cites guide sections as "§1.2", which ASCII cannot encode.
    path = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert run(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("clinic: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_dangling_marker_is_a_structure_error(tmp_path, capsys):
    text = "The model holds[^9]. The model predicts.\n"
    path = write(tmp_path, "doc.md", text)
    assert run(["analyze", path]) == 2
    assert "9" in capsys.readouterr().err
    # The plain reader takes the same bytes as prose.
    assert run(["analyze", "--format", "plain", path]) == 0


def test_config_file_lowers_a_threshold(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FIRESIDE_GOOD + "\n")
    cfg = write(tmp_path, "clinic.cfg",
                "# tighter sentences\nmax_sentence_words = 10\n")
    assert run(["analyze", doc]) == 0
    capsys.readouterr()
    assert run(["analyze", "--config", cfg, doc]) == 1
    assert " S101 " in capsys.readouterr().out


def test_flag_beats_config_file(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FIRESIDE_GOOD + "\n")
    cfg = write(tmp_path, "clinic.cfg", "max_sentence_words = 10\n")
    assert run(["analyze", "--config", cfg, "--max-sentence-words", "40", doc]) == 0


def test_unknown_config_key_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    cfg = write(tmp_path, "clinic.cfg", "max_sentence_words = 10\nwordiness = 3\n")
    assert run(["analyze", "--config", cfg, doc]) == 2
    err = capsys.readouterr().err
    assert "wordiness" in err and ":2:" in err


def test_non_numeric_config_value_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    cfg = write(tmp_path, "clinic.cfg", "max_sentence_words = plenty\n")
    assert run(["analyze", "--config", cfg, doc]) == 2
    err = capsys.readouterr().err
    assert "max_sentence_words" in err and "plenty" in err and ":1:" in err


def test_out_of_range_config_value_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    cfg = write(tmp_path, "clinic.cfg", "max_delay_words = 9\nmax_sentence_words = 0\n")
    assert run(["analyze", "--config", cfg, doc]) == 2
    err = capsys.readouterr().err
    assert "max_sentence_words" in err and "got 0" in err and ":2:" in err


def test_nonpositive_flag_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    assert run(["analyze", "--max-sentence-words", "-1", doc]) == 2
    assert "max_sentence_words" in capsys.readouterr().err


def test_nan_flag_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    assert run(["analyze", "--footnote-ratio", "nan", doc]) == 2
    assert "footnote_ratio" in capsys.readouterr().err


def test_huge_footnote_ratio_overflows_to_no_finding(tmp_path, capsys):
    # 1200 words and one footnote: the fair count overflows to infinity.
    sentences = [FILLER] * 99 + [FILLER[:-1] + "[^1]."]
    doc = write(tmp_path, "fn.md", paragraphs(sentences) + "\n\n[^1]: A note.\n")
    assert run(["analyze", "--footnote-ratio", "1e308", doc]) == 0
    assert capsys.readouterr().out == f"{doc}: no findings\n"


def _reject_constant(name):
    raise ValueError(f"{name} is no JSON number")


def _strict_json(line):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""
    return json.loads(line, parse_constant=_reject_constant)


def test_huge_words_per_page_overflows_to_no_rate_finding(tmp_path, capsys):
    # 24 words: on pages of 10**310 words the S701 and S702 rates per page
    # overflow to infinity; on pages of 10**300 words they stay finite.
    doc = write(tmp_path, "rates.txt",
                " ".join([SUPERLATIVE_PASSAGE] + [INTENSITY_ADV] * 2) + "\n")
    for words_per_page, rules in ((10**300, {"S201", "S701", "S702"}), (10**310, {"S201"})):
        argv = ["analyze", "--words-per-page", str(words_per_page), "--output", "machine", doc]
        assert run(argv) == 1
        data = _strict_json(capsys.readouterr().out)
        assert {d["rule_id"] for d in data["diagnostics"]} == rules


def test_float_flag_arms_the_page_rule(tmp_path, capsys):
    doc = write(tmp_path, "big.txt", paragraphs([FILLER] * 1000) + "\n")
    assert run(["analyze", doc]) == 0
    capsys.readouterr()
    assert run(["analyze", "--max-pages", "25", doc]) == 1
    assert " S501 " in capsys.readouterr().out


def test_lexicon_extension_adds_superlatives(tmp_path, capsys):
    shiny = ("This is the shiniest method in the shiniest tradition of the "
             "field. Our approach remains the shiniest available, and its "
             "results are the shiniest.")
    doc = write(tmp_path, "doc.txt",
                paragraphs([shiny] + [FILLER_SHORT] * 47, per_paragraph=4) + "\n")
    words = write(tmp_path, "extra.lex", "[superlatives]\nshiniest\n")
    base = ["analyze", "--format", "plain", "--rules", "S702", doc]
    assert run(base) == 0
    capsys.readouterr()
    assert run(base[:3] + ["--lexicon", words] + base[3:]) == 1
    assert " S702 " in capsys.readouterr().out


def test_config_and_lexicon_rewritten_between_runs_take_effect(tmp_path, capsys):
    # One process, one path each, the same text length: only the new text
    # tells the second run from the first.
    shiny = "This is the shiniest method, and the shiniest result of the field."
    doc = write(tmp_path, "doc.txt",
                paragraphs([shiny] + [FILLER_SHORT] * 7, per_paragraph=4) + "\n")
    cfg = write(tmp_path, "clinic.cfg", "max_sentence_words = 90\n")
    words = write(tmp_path, "extra.lex", "[superlatives]\nshiniest\n")
    args = ["analyze", "--format", "plain", "--output", "machine", "--rules", "S101,S702",
            "--config", cfg, "--lexicon", words, doc]
    assert run(args) == 1
    first = {d["rule_id"] for d in json.loads(capsys.readouterr().out)["diagnostics"]}
    assert first == {"S702"}
    write(tmp_path, "clinic.cfg", "max_sentence_words = 10\n")
    write(tmp_path, "extra.lex", "[superlatives]\nglossiest\n")
    assert run(args) == 1
    second = {d["rule_id"] for d in json.loads(capsys.readouterr().out)["diagnostics"]}
    assert second == {"S101"}


@pytest.mark.parametrize("flag,name,bad,good", [
    ("--config", "clinic.cfg", "wordiness = 9\n", "max_sentence_words = 9\n"),
    ("--lexicon", "extra.lex", "[shiny]\nbest\n", "[superlatives]\nbest\n"),
])
def test_a_malformed_file_fails_on_every_run(tmp_path, capsys, flag, name, bad, good):
    doc = write(tmp_path, "doc.txt", FILLER + "\n")
    path = write(tmp_path, name, bad)
    for _ in range(2):
        assert run(["analyze", flag, path, doc]) == 2
        assert capsys.readouterr().err.startswith(f"clinic: {path}:")
    write(tmp_path, name, good)
    assert run(["analyze", flag, path, doc]) in (0, 1)
    assert capsys.readouterr().err == ""
    write(tmp_path, name, bad)
    assert run(["analyze", flag, path, doc]) == 2


def test_each_run_parses_with_the_same_lexicon_object(tmp_path, capsys):
    # The fold table of the parse is kept while the lexicon is the same object.
    doc = write(tmp_path, "doc.txt", FILLER + "\n")
    words = write(tmp_path, "extra.lex", "[superlatives]\nshiniest\n")
    seen = []
    parse = document.parse_document

    def spy(*args, **kwargs):
        seen.append(kwargs["lexicon"])
        return parse(*args, **kwargs)

    with mock.patch("prose_clinic.cli.parse_document", spy):
        for _ in range(2):
            assert run(["analyze", "--lexicon", words, doc]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]
    assert "shiniest" in seen[0].superlatives


def test_run_calls_every_name_the_benchmark_traces(tmp_path, capsys, monkeypatch):
    # perfbench/tracer.py times each stage by swapping its name in cli's
    # namespace: a name that cli imports but no longer calls would read 0 s
    # there, without an error.
    spies = {name: mock.Mock(wraps=getattr(cli, name)) for name in CLI_CALLS}
    for name, spy in spies.items():
        monkeypatch.setattr(cli, name, spy)
    doc = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    cfg = write(tmp_path, "clinic.cfg", "max_sentence_words = 9\n")
    words = write(tmp_path, "extra.lex", "[superlatives]\nshiniest\n")
    for output in ("human", "machine"):
        assert run(["analyze", "--output", output, "--config", cfg, "--lexicon", words,
                    doc]) == 1
    assert [name for name, spy in spies.items() if not spy.called] == []


@pytest.mark.parametrize("name", ["missing.lex", "folder.lex"])
def test_unreadable_lexicon_exits_two_without_traceback(tmp_path, capsys, name):
    (tmp_path / "folder.lex").mkdir()
    lexicon = str(tmp_path / name)
    path = write(tmp_path, "ok.txt", FILLER + "\n")
    assert run(["analyze", "--lexicon", lexicon, path]) == 2
    out = capsys.readouterr()
    assert lexicon in out.err
    assert "Traceback" not in out.err
    assert out.out == ""


def test_non_utf8_lexicon_is_named(tmp_path, capsys):
    lexicon = tmp_path / "bad.lex"
    lexicon.write_bytes(b"[superlatives]\ncaf\xe9\n")
    path = write(tmp_path, "ok.txt", FILLER + "\n")
    assert run(["analyze", "--lexicon", str(lexicon), path]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"clinic: {lexicon}: ")
    assert "Traceback" not in out.err
    assert out.out == ""


def test_non_utf8_config_is_named(tmp_path, capsys):
    cfg = tmp_path / "clinic.cfg"
    cfg.write_bytes(b"max_sentence_words = 10  # caf\xe9\n")
    path = write(tmp_path, "ok.txt", FILLER + "\n")
    assert run(["analyze", "--config", str(cfg), path]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"clinic: {cfg}: ")
    assert "Traceback" not in out.err
    assert out.out == ""


def test_calls_in_one_process_see_only_their_own_flags(tmp_path, capsys):
    # The argument parser is built once per process and shared by the calls.
    doc = write(tmp_path, "doc.txt", FIRESIDE_GOOD + "\n")
    machine = ["analyze", "--output", "machine"]
    assert run(machine + ["--max-sentence-words", "10", doc]) == 1
    first = parse_machine(capsys.readouterr().out)
    assert run(machine + ["--max-paragraph-sentences", "2", doc]) == 0
    second = parse_machine(capsys.readouterr().out)
    assert run(machine + [doc]) == 0
    third = parse_machine(capsys.readouterr().out)
    assert (first.config.max_sentence_words, first.config.max_paragraph_sentences) == (10, 6)
    assert (second.config.max_sentence_words, second.config.max_paragraph_sentences) == (25, 2)
    assert third.config == AnalysisConfig()


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    text = "# Methods\n\nAlpha is good.\n\n# Results\n\nBeta is here.\n"
    plain = write(tmp_path, "plain.md", text)
    bom = write(tmp_path, "bom.md", "\ufeff" + text)
    for output in ("human", "machine"):
        assert run(["analyze", "--output", output, plain]) == 0
        expected = capsys.readouterr().out.replace(plain, "PATH")
        assert run(["analyze", "--output", output, bom]) == 0
        assert capsys.readouterr().out.replace(bom, "PATH") == expected


def test_multiple_paths_report_in_order(tmp_path, capsys):
    clean = write(tmp_path, "clean.txt", FILLER + "\n")
    dirty = write(tmp_path, "dirty.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", clean, dirty]) == 1
    out = capsys.readouterr().out
    assert out.index(clean) < out.index(dirty)
    assert f"{clean}: no findings" in out


def test_machine_output_is_one_json_line_per_path(tmp_path, capsys):
    clean = write(tmp_path, "clean.txt", FILLER + "\n")
    dirty = write(tmp_path, "dirty.txt", STROSIS_UNLINKED + "\n")
    assert run(["analyze", "--output", "machine", clean, dirty]) == 1
    lines = capsys.readouterr().out.split("\n")
    assert lines[-1] == ""
    assert [json.loads(line)["document"] for line in lines[:-1]] == [clean, dirty]


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    run(["analyze", path])
    first = capsys.readouterr().out
    run(["analyze", path])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("output", ["human", "machine"])
def test_analysis_builds_no_sentence_or_paragraph(tmp_path, capsys, output):
    # The parse writes the sentence and paragraph bounds into the store's
    # arrays, and the detectors and maladies read them by index: a Sentence
    # or a Paragraph is built only for a caller that asks for one.
    text = "\n\n".join(["# Opening", TOPICS_ORIGINAL, STROSIS_UNLINKED, "## Methods",
                        LORIMETER_ORIGINAL, SUPERLATIVE_PASSAGE, "## Results", TRAIL_ORIGINAL,
                        paragraphs([FILLER] * 21, per_paragraph=7)])
    path = write(tmp_path, "sections.md", text + "\n")
    with mock.patch.object(document, "Sentence", wraps=document.Sentence) as sentence, \
            mock.patch.object(document, "Paragraph", wraps=document.Paragraph) as paragraph:
        assert run(["analyze", "--output", output, path]) == 1
        assert (sentence.call_count, paragraph.call_count) == (0, 0)
        doc = document.parse_document(text)
        assert len(doc.sections) == 3
        assert sentence.call_count == paragraph.call_count == 0
        views = list(doc.iter_paragraphs())
        assert paragraph.call_count == len(views)
        assert sentence.call_count == sum(len(p.sentences) for p in views)
    report = capsys.readouterr().out
    for name in ("S101", "S201", "S301", "S401", "S702", "MissingRapRelevance", "PoorChunking"):
        assert name in report


def test_bad_flag_value_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--max-sentence-words", "abc", "x.txt"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "prose_clinic.cli", "analyze", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert " S201 " in proc.stdout


def test_cli_imports_only_the_standard_library():
    # -S leaves site-packages off sys.path, so only the package's own
    # directory is added: any import from outside the standard library fails
    # or shows up among the loaded modules.
    src = os.path.dirname(os.path.dirname(sys.modules["prose_clinic.cli"].__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import prose_clinic.cli; "
            "print(*{name.partition('.')[0] for name in sys.modules})")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "prose_clinic" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"__main__", "prose_clinic"} == set()


# Pieces that reach each part of the pipeline: headings, footnote markers and
# definitions (a marker without one is a structure error), rule passages,
# non-ASCII and CRLF text. Bytes that are not UTF-8 come from st.binary.
_DOC_PIECES = st.sampled_from([
    "# Method\n", "## Results [^1]\n", "[^1]: A note.\n", "[^2]: Another.\n",
    "Alpha cites it.[^3]\n\n[^3]: A note.\n", "See [^1]. ", "[^x]", "\n\n", "\r\n", "\ufeff", "İ Über, e.g. Dr. Alpha. ",
    FILLER + " ", INTENSITY_ADV + " ", STROSIS_UNLINKED, TRAIL_ORIGINAL,
    TOPICS_ORIGINAL, SUPERLATIVE_PASSAGE, LORIMETER_ORIGINAL, "most shiniest. ",
])
_DOC_TEXT = st.lists(st.one_of(_DOC_PIECES, st.text(max_size=8)), max_size=12).map("".join)
_DOC_BYTES = st.one_of(_DOC_TEXT.map(str.encode), _DOC_TEXT.map(str.encode),
                       st.binary(max_size=40))
_CONFIG_KEYS = [f.name for f in dataclasses.fields(AnalysisConfig)]
_CONFIG_TEXT = st.lists(
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS),
              st.sampled_from(["1", "3", "25", "9" * 40, "1" + "0" * 310, "1_000"])),
    max_size=6).map("\n".join)
_BAD_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS + ["bogus"]),
              st.sampled_from(["0.5", "0", "-2", "nan", "inf", "1e400", "1e-300", "x", ""])),
    st.sampled_from(["# a comment", "", "no equals sign"]),
    st.text(max_size=10),
)
_LEXICON_TEXT = st.lists(
    st.builds("[{}]\n{}".format,
              st.sampled_from(["superlatives", "subordinating", "abbreviations", "stopwords"]),
              st.sampled_from(["shiniest", "granted", "alpha.", "# note", "most"])),
    max_size=4).map("\n".join)
_BAD_LEXICON_LINE = st.one_of(st.sampled_from(["[verbs]", "[]"]), st.text(max_size=10))


def _option_file(good_text, bad_line):
    """None (no file), a well-formed file, one with a drawn line appended,
    or arbitrary bytes."""
    return st.one_of(
        st.none(),
        good_text.map(str.encode),
        st.builds("{}\n{}".format, good_text, bad_line).map(str.encode),
        st.binary(max_size=30),
    )


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(st.lists(_DOC_BYTES, min_size=1, max_size=2),
       _option_file(_CONFIG_TEXT, _BAD_CONFIG_LINE),
       _option_file(_LEXICON_TEXT, _BAD_LEXICON_LINE))
def test_any_input_files_end_in_a_documented_exit_code(documents, config, lexicon):
    with tempfile.TemporaryDirectory() as folder:
        argv = ["analyze"]
        for flag, name, data in (("--config", "clinic.cfg", config),
                                 ("--lexicon", "extra.lex", lexicon)):
            if data is not None:
                argv += [flag, os.path.join(folder, name)]
                with open(argv[-1], "wb") as fh:
                    fh.write(data)
        paths = []
        for i, data in enumerate(documents):
            paths.append(os.path.join(folder, f"doc{i}.md"))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        for fmt in sorted(FORMATS):
            codes = set()
            for output in ("human", "machine"):
                code, out, err = _run_captured(
                    argv + ["--format", fmt, "--output", output, *paths])
                codes.add(code)
                assert code in (0, 1, 2)
                if code == 1:
                    assert out
                if code == 2:
                    assert any(line.startswith("clinic: ") for line in err.splitlines())
                else:
                    assert err == ""
            # The machine run is the last: each line is JSON with no NaN or
            # infinity, it round-trips, and exit 1 means findings and nothing
            # else.
            lines = out.split("\n")
            assert lines.pop() == ""
            for line in lines:
                _strict_json(line)
            reports = [parse_machine(line) for line in lines]
            for line, report in zip(lines, reports):
                assert render_machine(report) == line + "\n"
            if code != 2:
                assert code == any(r.diagnostics or r.maladies for r in reports)
            assert len(codes) == 1
