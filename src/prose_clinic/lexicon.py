"""Word classes used by the detectors.

Everything here is a plain lookup table: connector classes, be-forms,
demonstratives, nominalization suffixes, intensity and superlative vocabulary,
sentence-boundary abbreviations, and a standard stopword list. The tables
hold lowercase entries, and a word is classified by testing its lowercase
form against a set (``word.lower() in lexicon.be_forms``): the parse folds
each distinct word form to lowercase once, and a detector that tests a
word's spelling reads the word token's text lowercased (TokenStore.form).
The two tests that are more than a set lookup each live in one helper that
takes a lowercase form (is_folded_nominalization, folded_intensity_family).
Lexicon.word_class gathers the tests the detectors look for into one class
byte per form, one bit per class (BE_FORM ... GERUND); the parse keeps one
per token (TokenStore.word_class, 0 for a token that is not a word), so
the detectors find their words with a C-level scan of those bytes. The
tables can be extended from a plain-text file, see
load_lexicon_extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from . import optionfile


class LexiconError(ValueError):
    pass


_COORDINATING = frozenset("for and nor but or yet so".split())

_SUBORDINATING = frozenset(
    """
    after although as because before if once since though unless until
    when whenever whereas wherever while
    """.split()
)

# Includes the enumerative conjuncts (first, second, ...) so that list-style
# paragraphs read as linked.
_CONJUNCTIVE_ADVERBS = frozenset(
    """
    accordingly also besides consequently conversely finally first firstly
    furthermore hence however indeed instead lastly likewise meanwhile
    moreover nevertheless next nonetheless otherwise second secondly
    similarly still then therefore third thirdly thus
    """.split()
)

_DEMONSTRATIVES = frozenset("this these such that those".split())

_BE_FORMS = frozenset("is are was were be been being am".split())

_NOMINALIZATION_SUFFIXES = ("tion", "sion", "ment", "ence", "ance", "ity", "ization")

_INTENSITY_WORDS = frozenset(
    "important importantly significantly interestingly crucially notably".split()
)

# The bits of a class byte (Lexicon.word_class).
(BE_FORM, NOMINALIZATION, CONNECTOR, SUBORDINATOR, DEMONSTRATIVE, INTENSITY, SUPERLATIVE,
 GERUND) = (1, 2, 4, 8, 16, 32, 64, 128)

_SUPERLATIVES = frozenset(
    """
    best worst greatest largest smallest highest lowest finest strongest
    weakest noblest foremost utmost unprecedented unparalleled unrivaled
    unrivalled unmatched unsurpassed
    """.split()
)

# Stored lowercase; matched case-insensitively at sentence boundaries.
_ABBREVIATIONS = frozenset(
    ["e.g.", "i.e.", "et al.", "etc.", "cf.", "vs.",
     "dr.", "mr.", "mrs.", "ms.", "prof.", "fig.", "eq."]
)

_STOPWORDS = frozenset(
    """
    a about above across accordingly after again against all almost along
    already also although always am among an and another any anyone anything
    are around as at be because been before behind being below beneath beside
    besides between beyond both but by can cannot consequently conversely
    could did do does doing done down during each either else enough even ever
    every everyone everything except few finally for from further furthermore
    had has have having he hence her here hers herself him himself his how
    however i if in indeed instead into is it its itself just lastly least
    less like likewise many may me meanwhile might mine more moreover most
    much must my myself near neither never nevertheless next no nobody none
    nonetheless nor not nothing now of off often on once one ones only onto
    or other others otherwise ought our ours ourselves out over own per
    perhaps quite rather same several shall she should similarly since so
    some someone something sometimes soon still such than that the their
    theirs them themselves then there therefore these they this those though
    through throughout thus to too toward towards under unless until unto up
    upon us very via was we were what whatever when whenever where whereas
    wherever whether which while who whom whose why will with within without
    would yet you your yours yourself yourselves
    """.split()
)


@dataclass(frozen=True)
class Lexicon:
    stopwords: frozenset[str]
    coordinating: frozenset[str]
    subordinating: frozenset[str]
    conjunctive_adverbs: frozenset[str]
    demonstratives: frozenset[str]
    be_forms: frozenset[str]
    nominalization_suffixes: tuple[str, ...]
    intensity_words: frozenset[str]
    superlatives: frozenset[str]
    abbreviations: frozenset[str]

    def is_folded_nominalization(self, form: str) -> bool:
        """Whether a lowercase form reads as a nominalization: it is long
        enough (>= 7 characters) and carries one of the noun-making
        suffixes; short nouns like "nation" do not qualify."""
        return len(form) >= 7 and form.endswith(self.nominalization_suffixes)

    def word_class(self, form: str) -> int:
        """The class byte of a lowercase form: BE_FORM; NOMINALIZATION;
        CONNECTOR (coordinating, subordinating or conjunctive adverb);
        SUBORDINATOR (subordinating and not coordinating: a word in both
        joins clauses of equal rank); DEMONSTRATIVE; INTENSITY; SUPERLATIVE
        for a superlative or "most"; GERUND for an -ing word of five
        letters or more."""
        return (BE_FORM * (form in self.be_forms)
                | NOMINALIZATION * self.is_folded_nominalization(form)
                | CONNECTOR * (form in self.coordinating or form in self.subordinating
                               or form in self.conjunctive_adverbs)
                | SUBORDINATOR * (form in self.subordinating and form not in self.coordinating)
                | DEMONSTRATIVE * (form in self.demonstratives)
                | INTENSITY * (form in self.intensity_words)
                | SUPERLATIVE * (form in self.superlatives or form == "most")
                | GERUND * (form.endswith("ing") and len(form) >= 5))

    def folded_intensity_family(self, form: str) -> str:
        """The family key of a lowercase intensity form. Adverb and adjective
        forms pool: "importantly" and "important" report under one key."""
        if form.endswith("ly") and len(form) > 4:
            return form[:-2]
        return form


_DEFAULT = Lexicon(
    stopwords=_STOPWORDS,
    coordinating=_COORDINATING,
    subordinating=_SUBORDINATING,
    conjunctive_adverbs=_CONJUNCTIVE_ADVERBS,
    demonstratives=_DEMONSTRATIVES,
    be_forms=_BE_FORMS,
    nominalization_suffixes=_NOMINALIZATION_SUFFIXES,
    intensity_words=_INTENSITY_WORDS,
    superlatives=_SUPERLATIVES,
    abbreviations=_ABBREVIATIONS,
)


def default_lexicon() -> Lexicon:
    return _DEFAULT


def stem(word: str) -> str:
    """Light inflectional stem: lowercase, then drop possessive markers and
    trailing apostrophes and strip -ing/-ed/-es/-s until nothing more comes
    off. A suffix never leaves fewer than three characters, and stemming a
    stem is a no-op."""
    w = word.lower()
    while True:
        shorter = _strip_one_suffix(w)
        if shorter == w:
            return w
        w = shorter


def _strip_one_suffix(w: str) -> str:
    # Possessive markers and apostrophes come off whenever they end the word,
    # also after a suffix was stripped ("x'sing"), so a stem is a fixed point.
    if w.endswith(("'s", "’s")):
        return w[:-2]
    if w.endswith(("'", "’")):
        return w[:-1]
    if w.endswith("ing") and len(w) - 3 >= 3:
        return w[:-3]
    if w.endswith("ed") and len(w) - 2 >= 3:
        return w[:-2]
    # -es only after a sibilant cluster (boxes, churches); "spores" loses
    # just the -s so it meets "spore"
    if w.endswith("es") and len(w) - 2 >= 3 and w[:-2].endswith(("ss", "x", "z", "ch", "sh")):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss") and len(w) - 1 >= 3:
        return w[:-1]
    return w


# The set-valued classes; nominalization_suffixes is a tuple and stays fixed.
_EXTENSIBLE = tuple(f.name for f in fields(Lexicon) if f.type == "frozenset[str]")


def load_lexicon_extensions(path: str, base: Lexicon | None = None) -> Lexicon:
    """Extend a lexicon from a plain-text file.

    Format: a ``[class_name]`` header opens a class, then one entry per line.
    Blank lines and ``#`` comments are ignored. Entries are lowercased.
    Valid class names are the Lexicon set fields (stopwords, coordinating,
    subordinating, conjunctive_adverbs, demonstratives, be_forms,
    intensity_words, superlatives, abbreviations). An unchanged file over the
    same base object gives the same frozen Lexicon, parsed once.
    """
    return optionfile.load(path, "lexicon", LexiconError, _extend, base or default_lexicon())


def _extend(text: str, path: str, lex: Lexicon) -> Lexicon:
    added: dict[str, set[str]] = {}
    current: str | None = None
    for lineno, line in optionfile.lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _EXTENSIBLE:
                raise LexiconError(f"{path}:{lineno}: unknown lexicon class {name!r}")
            current = name
            added.setdefault(current, set())
            continue
        if current is None:
            raise LexiconError(f"{path}:{lineno}: entry before any [class] header")
        added[current].add(line.lower())
    updates = {
        field: getattr(lex, field) | frozenset(words)
        for field, words in added.items()
        if words
    }
    return replace(lex, **updates) if updates else lex
