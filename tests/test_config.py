import dataclasses

import pytest

from prose_clinic.config import (
    AnalysisConfig,
    ConfigError,
    load_config,
    parse_config_text,
)


def test_defaults():
    cfg = AnalysisConfig()
    assert cfg.max_sentence_words == 25
    assert cfg.max_paragraph_sentences == 6
    assert cfg.words_per_page == 400
    assert cfg.footnote_ratio == pytest.approx(1 / 3)
    assert cfg.intensity_per_page == 1.0
    assert cfg.superlative_per_page == 3.0
    assert cfg.max_pages is None


def test_config_is_frozen():
    cfg = AnalysisConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_sentence_words = 1


@pytest.mark.parametrize("field,value", [
    ("max_sentence_words", 0),
    ("footnote_ratio", -0.5),
    ("max_pages", 0),
    ("footnote_ratio", float("nan")),
    ("intensity_per_page", float("inf")),
])
def test_nonpositive_values_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        AnalysisConfig(**{field: value})


def test_parse_config_text_types_and_comments():
    text = ("# comment line\n"
            "max_sentence_words = 30   # trailing comment\n"
            "\n"
            "footnote_ratio = 0.25\n")
    overrides = parse_config_text(text)
    assert overrides == {"max_sentence_words": 30, "footnote_ratio": 0.25}
    assert isinstance(overrides["max_sentence_words"], int)
    assert isinstance(overrides["footnote_ratio"], float)


def test_parse_config_text_rejects_junk():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="wordiness"):
        parse_config_text("wordiness = 3\n")
    with pytest.raises(ConfigError, match="max_delay_words"):
        parse_config_text("max_delay_words = twelve\n")


def test_load_config_applies_over_base(tmp_path):
    path = tmp_path / "clinic.cfg"
    path.write_text("max_pages = 25\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.max_pages == 25.0
    assert cfg.max_sentence_words == 25  # untouched default


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_ignores_byte_order_mark(tmp_path):
    path = tmp_path / "clinic.cfg"
    path.write_text("\ufeffmax_sentence_words = 30\n", encoding="utf-8")
    assert load_config(str(path)).max_sentence_words == 30
