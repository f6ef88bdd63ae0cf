import os
import subprocess
import sys

import pytest

from prose_clinic.cli import run
from prose_clinic.reporting import parse_machine

from docbuild import FILLER, FILLER_SHORT, paragraphs
from passages import (
    FIRESIDE_GOOD,
    LORIMETER_ORIGINAL,
    STROSIS_UNLINKED,
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
    assert "max_sentence_words" in err and "plenty" in err


def test_nonpositive_flag_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    assert run(["analyze", "--max-sentence-words", "-1", doc]) == 2
    assert "max_sentence_words" in capsys.readouterr().err


def test_nan_flag_errors(tmp_path, capsys):
    doc = write(tmp_path, "doc.txt", FILLER)
    assert run(["analyze", "--footnote-ratio", "nan", doc]) == 2
    assert "footnote_ratio" in capsys.readouterr().err


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


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "doc.txt", STROSIS_UNLINKED + "\n")
    run(["analyze", path])
    first = capsys.readouterr().out
    run(["analyze", path])
    assert capsys.readouterr().out == first


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
