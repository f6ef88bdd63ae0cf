"""What the two option files, --config and --lexicon, share: the read, the
cache and the line rule. Each loader keeps only its own line format."""

from __future__ import annotations

# The last 8 values that load built, keyed by parse function, path, file text
# and the base's id, each kept with its base. The base goes by identity, as it may
# hold unhashable sets; an entry keeps its base alive, so no other object
# takes over its id. An error is not cached.
_parsed: dict[tuple, tuple] = {}


def load(path: str, kind: str, error: type[ValueError], parse, base=None):
    """parse(text, path, base) of the file's UTF-8 text (a byte-order mark is
    ignored), or error if the file cannot be read or decoded. The file is read
    on every call, but an unchanged text over the same base is parsed once."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    key = (parse, path, text, id(base))
    entry = _parsed.get(key)
    if entry is None:
        value = parse(text, path, base)
        if len(_parsed) >= 8:
            _parsed.pop(next(iter(_parsed)))
        entry = _parsed[key] = base, value
    return entry[1]


def lines(text: str):
    """(line number, line) for each line that holds more than a comment, cut
    at "#" and stripped. A line ends at "\\n", "\\r\\n" or "\\r" only: a
    text-mode read leaves "\\n", and raw text may hold the others."""
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
