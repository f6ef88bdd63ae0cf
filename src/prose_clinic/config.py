"""Analysis thresholds and the flat key=value config file loader."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AnalysisConfig:
    max_sentence_words: int = 25
    max_paragraph_sentences: int = 6
    words_per_page: int = 400
    footnote_ratio: float = 1 / 3
    intensity_per_page: float = 1.0
    superlative_per_page: float = 3.0
    min_insertion_words: int = 8
    max_core_prefix_tokens: int = 4
    max_delay_words: int = 12
    max_pages: float | None = None
    link_window_tokens: int = 3
    keyword_count: int = 15
    min_keyword_overlap: int = 2
    malady_min_rule_kinds: int = 3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            integer = f.name in INT_FIELDS
            # An int field takes an int, the others any number, and max_pages
            # also None; a bool is no number. The chained comparison is false
            # for NaN as well.
            if not (value is None and f.name == "max_pages") and (
                    isinstance(value, bool)
                    or not isinstance(value, int if integer else (int, float))
                    or not 0 < value < math.inf):
                raise ConfigError(f"{f.name} must be a positive, finite "
                                  f"{'integer' if integer else 'number'}, got {value!r}")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(AnalysisConfig)}
INT_FIELDS = frozenset(name for name, tp in _FIELD_TYPES.items() if tp == "int")


def _parse_value(key: str, raw: str):
    try:
        if key in INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError:
        kind = "an integer" if key in INT_FIELDS else "a number"
        raise ConfigError(f"config key {key!r} needs {kind}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, int | float]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment. Keys must be
    AnalysisConfig field names. Returns the overrides as a mapping."""
    overrides: dict[str, int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        overrides[key] = _parse_value(key, value)
    return overrides


def load_config(path: str) -> AnalysisConfig:
    """Read a config file and apply it over the defaults. The file is read
    on every call, but a text is parsed only once: while the file's text is
    unchanged, each call returns the same frozen config."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _config_from_text(text, path)


# A file read again with the same text gives the same config without a parse.
# The key holds the path, which error messages name; an error is not cached.
@lru_cache(maxsize=8)
def _config_from_text(text: str, path: str) -> AnalysisConfig:
    return AnalysisConfig(**parse_config_text(text, source=path))
