"""Builders for large synthetic documents used across test modules.

All sentence constants have hand-counted word totals so page math in tests
stays exact.
"""

FILLER = "The model links the data to the outcome in a clear way."  # 12 words
FILLER_SHORT = "The model links the data to the outcome."  # 8 words
FILLER_TINY = "The model links data."  # 4 words

INTENSITY_ADJ = "The important model links the data to the outcome in a way."  # 12
INTENSITY_ADV = "The model importantly links the data to the outcome in a way."  # 12
INTENSITY_SYN = "The model significantly links the data to the outcome in a way."  # 12

# 12 words, sharing no content stem with FILLER.
SURVEY = (
    "Our survey covers ten regions across four decades of archival records "
    "today."
)


def paragraphs(sentences, per_paragraph=5):
    """Join sentences into paragraphs of per_paragraph sentences each."""
    chunks = []
    for i in range(0, len(sentences), per_paragraph):
        chunks.append(" ".join(sentences[i:i + per_paragraph]))
    return "\n\n".join(chunks)


def with_marker(sentence, note_id):
    """Attach a footnote marker just before the final period."""
    assert sentence.endswith(".")
    return f"{sentence[:-1]}[^{note_id}]."


def note_definitions(note_ids):
    return "\n".join(
        f"[^{nid}]: See the longer discussion elsewhere." for nid in note_ids
    )


def footnote_document(sentences, note_count, per_paragraph=5):
    """Markdown document with note_count footnotes spread over the opening
    sentences."""
    sents = list(sentences)
    ids = [str(i + 1) for i in range(note_count)]
    for i, nid in enumerate(ids):
        sents[i] = with_marker(sents[i], nid)
    body = paragraphs(sents, per_paragraph)
    if not ids:
        return body + "\n"
    return body + "\n\n" + note_definitions(ids) + "\n"


def composite_document(note_count=11, intensity=31):
    """12000 words in one section: opener storyline break, footnote pile,
    one overworked intensity family."""
    opening = [FILLER] * 5
    second = [SURVEY] + [FILLER] * 4
    rest = interleave(FILLER, INTENSITY_ADJ, 990, intensity)
    return footnote_document(opening + second + rest, note_count)


def interleave(base_sentence, marked_sentence, total, marked):
    """total sentences with marked copies of marked_sentence spread evenly."""
    positions = set()
    if marked:
        step = total / marked
        positions = {int(i * step) for i in range(marked)}
    assert len(positions) == marked
    return [
        marked_sentence if i in positions else base_sentence
        for i in range(total)
    ]
