"""The result records are values: immutable, compared and hashed by field."""

import pytest

from prose_clinic.detectors import Diagnostic
from prose_clinic.document import WORD, Span, Token, parse_document
from prose_clinic.maladies import EvidenceRef, MaladyFinding, MaladyKind


def _span():
    return Span(4, 9, 1, 5)


def _diagnostic():
    return Diagnostic("S101", _span(), 30, 25, "sentence has 30 words", (Span(0, 3, 1, 1),))


def _evidence():
    return EvidenceRef("S702", _span())


# Each entry builds a fresh record from equal fields, and names one field.
_RECORDS = {
    "Span": (_span, "start_byte"),
    "Token": (lambda: Token("alpha", WORD, _span()), "text"),
    "Diagnostic": (_diagnostic, "measured"),
    "EvidenceRef": (_evidence, "rule_id"),
    "MaladyFinding": (lambda: MaladyFinding(MaladyKind.RHETORIC_RISK, 1, (_evidence(),)),
                      "strength"),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_is_immutable(name):
    build, field = _RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_compare_and_hash_by_value(name):
    build, _ = _RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_sentences_compare_by_position_not_by_store():
    first = parse_document("Alpha beta gamma.", "plain")
    second = parse_document("Delta epsilon zeta.", "plain")
    (a,), (b,) = (list(doc.iter_sentences()) for doc in (first, second))
    assert a.store is not b.store
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.word_count = 4
    longer = next(parse_document("Alpha beta gamma delta.", "plain").iter_sentences())
    assert longer != a
