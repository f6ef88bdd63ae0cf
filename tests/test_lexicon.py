import pytest
from hypothesis import given
from hypothesis import strategies as st

from prose_clinic.document import PLAIN, parse_document
from prose_clinic.lexicon import (
    LexiconError,
    default_lexicon,
    load_lexicon_extensions,
    stem,
)


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


_CONNECTOR_SETS = ("coordinating", "subordinating", "conjunctive_adverbs")


def _connector_sets_holding(lex, form):
    return [name for name in _CONNECTOR_SETS if form in getattr(lex, name)]


@pytest.mark.parametrize(
    "word,expected",
    [
        ("but", "coordinating"),
        ("But", "coordinating"),
        ("so", "coordinating"),
        ("although", "subordinating"),
        ("while", "subordinating"),
        ("moreover", "conjunctive_adverbs"),
        ("Therefore", "conjunctive_adverbs"),
        ("telerium", None),
        ("the", None),
    ],
)
def test_connector_class(lex, word, expected):
    # The tables hold lowercase entries: a word is classed by its lowercase form.
    assert _connector_sets_holding(lex, word.lower()) == ([expected] if expected else [])


def test_connector_classes_are_disjoint(lex):
    assert not lex.coordinating & lex.subordinating
    assert not lex.coordinating & lex.conjunctive_adverbs
    assert not lex.subordinating & lex.conjunctive_adverbs


def test_stopwords_outside_connector_sets_map_to_none(lex):
    connectors = lex.coordinating | lex.subordinating | lex.conjunctive_adverbs
    for word in lex.stopwords - connectors:
        assert _connector_sets_holding(lex, word) == []


def test_be_forms(lex):
    assert lex.be_forms == {"is", "are", "was", "were", "be", "been", "being", "am"}
    assert "Is".lower() in lex.be_forms
    assert "Is" not in lex.be_forms


@pytest.mark.parametrize(
    "word,expected",
    [
        ("consolidation", True),
        ("restriction", True),
        ("discussion", True),
        ("emergence", True),
        ("utilization", True),
        ("position", True),
        ("nation", False),  # right suffix, too short
        ("density", True),
        ("city", False),
        ("increasing", False),
        ("shield", False),
    ],
)
def test_is_nominalization(lex, word, expected):
    assert lex.is_folded_nominalization(word) is expected


# The nominalization test and the intensity family of each word's
# lowercase form.
_FORM_CLASSES = {
    "consolidation": (True, "consolidation"),
    "nation": (False, "nation"),
    "density": (True, "density"),
    "importantly": (False, "important"),
    "significantly": (False, "significant"),
    "only": (False, "only"),
    "fly": (False, "fly"),
}


@pytest.mark.parametrize("word", ["Consolidation", "NATION", "Density", "Importantly",
                                  "SIGNIFICANTLY", "Only", "fly"])
def test_predicates_lowercase_then_test_the_form(lex, word):
    # The parse stores each word's lowercase form once, and the detectors
    # test that form: a capitalised word classes as its lowercase form does.
    (form,) = parse_document(word, PLAIN).store.word_lower
    assert form == word.lower()
    assert (lex.is_folded_nominalization(form),
            lex.folded_intensity_family(form)) == _FORM_CLASSES[form]


def test_demonstratives(lex):
    assert lex.demonstratives == {"this", "these", "such", "that", "those"}
    assert "Such".lower() in lex.demonstratives
    assert "it" not in lex.demonstratives


@pytest.mark.parametrize(
    "word,expected",
    [
        ("spores", "spore"),
        ("methods", "method"),
        ("is", "is"),
        ("was", "was"),
        ("listening", "listen"),
        ("churches", "church"),
        ("glasses", "glass"),
        ("cases", "case"),
        ("dislodged", "dislodg"),
        ("teachers'", "teacher"),
        ("Incentives", "incentive"),
        ("", ""),
    ],
)
def test_stem_examples(word, expected):
    assert stem(word) == expected


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzing'ES’", max_size=18))
def test_stem_is_idempotent(word):
    once = stem(word)
    assert stem(once) == once


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=18))
def test_stem_never_returns_longer_word(word):
    assert len(stem(word)) <= len(word)


def test_intensity_family_pools_adverb_and_adjective(lex):
    assert (lex.folded_intensity_family("important")
            == lex.folded_intensity_family("importantly") == "important")
    assert lex.folded_intensity_family("significantly") == "significant"
    assert lex.folded_intensity_family("Important".lower()) == "important"


def test_intensity_and_superlative_membership(lex):
    assert "Importantly".lower() in lex.intensity_words
    assert "big" not in lex.intensity_words
    assert "noblest" in lex.superlatives
    assert "best" in lex.superlatives
    assert "better" not in lex.superlatives


def test_extension_file(tmp_path, lex):
    ext = tmp_path / "extra.lex"
    ext.write_text(
        "# project-specific vocabulary\n"
        "[intensity_words]\n"
        "remarkably\n"
        "\n"
        "[subordinating]\n"
        "granted  # as in: granted that ...\n",
        encoding="utf-8",
    )
    extended = load_lexicon_extensions(str(ext), lex)
    assert "remarkably" in extended.intensity_words
    assert _connector_sets_holding(extended, "granted") == ["subordinating"]
    # the base lexicon is untouched
    assert "remarkably" not in lex.intensity_words
    assert "granted" not in lex.subordinating


def test_extension_file_rejects_unknown_class(tmp_path):
    ext = tmp_path / "bad.lex"
    ext.write_text("[verbs]\nrun\n", encoding="utf-8")
    with pytest.raises(LexiconError) as exc:
        load_lexicon_extensions(str(ext))
    assert "verbs" in str(exc.value)


def test_extension_file_rejects_entry_before_header(tmp_path):
    ext = tmp_path / "bad.lex"
    ext.write_text("orphan\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon_extensions(str(ext))


def test_extension_file_ignores_byte_order_mark(tmp_path):
    ext = tmp_path / "bom.lex"
    ext.write_text("\ufeff[superlatives]\nshiniest\n", encoding="utf-8")
    assert "shiniest" in load_lexicon_extensions(str(ext)).superlatives


def test_unreadable_extension_file_is_a_lexicon_error(tmp_path):
    with pytest.raises(LexiconError, match="nope.lex"):
        load_lexicon_extensions(str(tmp_path / "nope.lex"))
    with pytest.raises(LexiconError):
        load_lexicon_extensions(str(tmp_path))
