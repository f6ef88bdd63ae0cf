import pytest
from hypothesis import given
from hypothesis import strategies as st

from prose_clinic.lexicon import (
    ConnectorClass,
    LexiconError,
    default_lexicon,
    load_lexicon_extensions,
    stem,
)


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


@pytest.mark.parametrize(
    "word,expected",
    [
        ("but", ConnectorClass.COORDINATING),
        ("But", ConnectorClass.COORDINATING),
        ("so", ConnectorClass.COORDINATING),
        ("although", ConnectorClass.SUBORDINATING),
        ("while", ConnectorClass.SUBORDINATING),
        ("moreover", ConnectorClass.CONJUNCTIVE_ADVERB),
        ("Therefore", ConnectorClass.CONJUNCTIVE_ADVERB),
        ("telerium", ConnectorClass.NONE),
        ("the", ConnectorClass.NONE),
    ],
)
def test_connector_class(lex, word, expected):
    assert lex.connector_class(word) == expected


def test_connector_classes_are_disjoint(lex):
    assert not lex.coordinating & lex.subordinating
    assert not lex.coordinating & lex.conjunctive_adverbs
    assert not lex.subordinating & lex.conjunctive_adverbs


def test_stopwords_outside_connector_sets_map_to_none(lex):
    connectors = lex.coordinating | lex.subordinating | lex.conjunctive_adverbs
    for word in lex.stopwords - connectors:
        assert lex.connector_class(word) == ConnectorClass.NONE


def test_be_forms(lex):
    for word in ["is", "are", "was", "were", "be", "been", "being", "am", "Is"]:
        assert lex.is_be_form(word)
    assert not lex.is_be_form("introduces")
    assert not lex.is_be_form("serves")


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
    assert lex.is_nominalization(word) is expected


def test_demonstratives(lex):
    for word in ["this", "these", "such", "that", "those", "Such"]:
        assert lex.is_demonstrative(word)
    assert not lex.is_demonstrative("it")


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
    assert lex.intensity_family("important") == lex.intensity_family("importantly")
    assert lex.intensity_family("significantly") == "significant"
    assert lex.intensity_family("Important") == "important"


def test_intensity_and_superlative_membership(lex):
    assert lex.is_intensity_word("Importantly")
    assert not lex.is_intensity_word("big")
    assert lex.is_superlative("noblest")
    assert lex.is_superlative("best")
    assert not lex.is_superlative("better")


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
    assert extended.is_intensity_word("remarkably")
    assert extended.connector_class("granted") == ConnectorClass.SUBORDINATING
    # the base lexicon is untouched
    assert not lex.is_intensity_word("remarkably")


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
    assert load_lexicon_extensions(str(ext)).is_superlative("shiniest")


def test_unreadable_extension_file_is_a_lexicon_error(tmp_path):
    with pytest.raises(LexiconError, match="nope.lex"):
        load_lexicon_extensions(str(tmp_path / "nope.lex"))
    with pytest.raises(LexiconError):
        load_lexicon_extensions(str(tmp_path))
