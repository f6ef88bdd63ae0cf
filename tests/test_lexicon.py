from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prose_clinic.document import PLAIN, WORD_CODE, parse_document
from prose_clinic.lexicon import (
    BE_FORM,
    CONNECTOR,
    DEMONSTRATIVE,
    GERUND,
    INTENSITY,
    NOMINALIZATION,
    SUBORDINATOR,
    SUPERLATIVE,
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
    # The detectors read a word's lowercase form at the token, and its class
    # byte is the form's: a capitalised word classes as its lowercase form
    # does.
    store = parse_document(word, PLAIN).store
    assert list(store.kind) == [WORD_CODE]
    form = store.form(0)
    assert form == word.lower()
    assert store.word_class[0] == lex.word_class(form)
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


@pytest.mark.parametrize("form,bits", [
    ("being", BE_FORM | GERUND),
    ("information", NOMINALIZATION),
    ("nation", 0),
    ("and", CONNECTOR),
    ("although", CONNECTOR | SUBORDINATOR),
    ("however", CONNECTOR),
    ("these", DEMONSTRATIVE),
    ("importantly", INTENSITY),
    ("best", SUPERLATIVE),
    ("most", SUPERLATIVE),
    ("sing", 0),
    ("making", GERUND),
    ("telerium", 0),
])
def test_word_class_has_a_bit_per_class_of_the_form(lex, form, bits):
    assert lex.word_class(form) == bits


def test_a_word_in_both_subordinating_and_coordinating_is_no_subordinator(tmp_path, lex):
    path = tmp_path / "both.lex"
    path.write_text("[coordinating]\nalthough\n[subordinating]\nyet\n", encoding="utf-8")
    both = load_lexicon_extensions(str(path))
    assert both.word_class("although") == both.word_class("yet") == CONNECTOR
    assert lex.word_class("yet") == CONNECTOR


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


def test_an_unchanged_extension_file_gives_the_same_object(tmp_path, lex):
    ext = tmp_path / "extra.lex"
    ext.write_text("[superlatives]\nshiniest\n", encoding="utf-8")
    first = load_lexicon_extensions(str(ext), lex)
    assert load_lexicon_extensions(str(ext), lex) is first
    assert load_lexicon_extensions(str(ext)) is first  # the default base
    ext.write_text("[superlatives]\nglossiest\n", encoding="utf-8")
    second = load_lexicon_extensions(str(ext), lex)
    assert "glossiest" in second.superlatives and "shiniest" not in second.superlatives
    # CRLF and lone CR line ends read as "\n", as in any text file.
    ext.write_bytes(b"[superlatives]\r\nshiniest\rglossiest\r\n")
    assert {"shiniest", "glossiest"} <= load_lexicon_extensions(str(ext), lex).superlatives


def test_an_extension_file_extends_a_base_of_plain_sets(tmp_path, lex):
    # A base is told apart by identity: plain sets cannot be hashed.
    base = replace(lex, superlatives=set(lex.superlatives), stopwords=set(lex.stopwords))
    other = replace(lex, superlatives=set(lex.superlatives) | {"glossiest"})
    ext = tmp_path / "extra.lex"
    ext.write_text("[superlatives]\nshiniest\n", encoding="utf-8")
    extended = load_lexicon_extensions(str(ext), base)
    assert extended.superlatives == lex.superlatives | {"shiniest"}
    assert extended.stopwords is base.stopwords
    assert load_lexicon_extensions(str(ext), base) is extended
    assert "glossiest" in load_lexicon_extensions(str(ext), other).superlatives


def test_a_malformed_extension_file_raises_on_every_call(tmp_path):
    ext = tmp_path / "bad.lex"
    ext.write_text("[verbs]\nrun\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(LexiconError, match="verbs"):
            load_lexicon_extensions(str(ext))
