"""Corpus handling: sentence segmentation, vocabulary, packing.

A corpus file is UTF-8 text with documents separated by blank lines.
Documents are segmented into sentences by one regex scan for runs of
terminal punctuation followed by whitespace (``segment_sentences``),
tokenized into lowercased word/punctuation tokens, merged down to at
most M sentences, and packed into fixed-length examples.

``pack_segments`` lays out every model input; nothing else writes a
layout array. Pretraining packs one segment:

    [CLS] [SENT] w w ... [SENT] w w ... [SEP] [PAD] ...

Sentence-pair classification packs one segment per text, each closed
by its own [SEP], with BERT segment ids 0 and 1:

    [CLS] [SENT] a a ... [SENT] a ... [SEP] [SENT] b b ... [SEP] [PAD] ...

Extractive QA puts the question in front as an unmarked lead block,
segment 0, and the context sentences after it as segment 1:

    [CLS] q q ... [SEP] [SENT] c c ... [SENT] c ... [SEP] [PAD] ...

One [SENT] marker stands in front of every sentence (none when sentence
tokens are off). Sentence ids address a table of M+1 rows whose last
row is reserved for [CLS], [SEP], [PAD], question words and any other
token that belongs to no sentence.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, read_text, write_atomic

PAD, UNK, CLS, SEP, MASK, SENT = 0, 1, 2, 3, 4, 5
SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[SENT]"]
NUM_SPECIALS = len(SPECIAL_TOKENS)

# Common abbreviations that end with a period without ending a sentence.
_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "rev", "gen", "sen", "rep", "st",
    "jr", "sr", "co", "corp", "inc", "ltd", "dept", "univ", "assn",
    "bros", "etc", "vs", "fig", "al", "eg", "ie", "cf", "no", "vol",
    "pp", "ed", "eds", "approx", "est", "min", "max", "dist", "ave",
    "blvd", "rd", "jan", "feb", "mar", "apr", "jun", "jul", "aug",
    "sep", "sept", "oct", "nov", "dec", "mon", "tue", "wed", "thu",
    "fri", "sat", "sun",
}

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# a run of terminal punctuation and the whitespace after it
_BOUNDARY_RE = re.compile(r"([.!?]+)\s+")


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation tokens; deterministic, no vocabulary."""
    return _TOKEN_RE.findall(text.lower())


def segment_sentences(text: str) -> list[str]:
    """Split a document into sentences on ., !, ? boundaries.

    A boundary is one regex match: a run of terminal punctuation (like
    "?!" or "...") followed by whitespace. It splits only when an
    uppercase letter or digit comes next, and a lone period after a
    known abbreviation or a single-letter initial does not split. Both
    tests use ``str`` methods and the regex's ``\\s`` is ``str.isspace``,
    so Unicode letters, digits and spaces count as ``str`` counts them.
    Joining the result restores the input up to the whitespace that
    separated sentences.
    """
    text = text.strip()
    sentences, start = [], 0
    for m in _BOUNDARY_RE.finditer(text):
        nxt = text[m.end()]     # text is stripped, so a character follows
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if m.group(1) == "." and _is_abbreviation(text, m.start()):
            continue
        sentences.append(text[start:m.end(1)])
        start = m.end()
    if text:
        sentences.append(text[start:])
    return sentences


def _is_abbreviation(text: str, dot: int) -> bool:
    j = dot - 1
    while j >= 0 and (text[j].isalnum() or text[j] == "."):
        j -= 1
    word = text[j + 1:dot].rstrip(".")
    if not word:
        return False
    if all(len(part) == 1 and part.isalpha() for part in word.split(".")):
        return True  # initials like "J. Smith", "U.S." and "e.g."
    return word.lower() in _ABBREVIATIONS


def read_corpus(path: str) -> list[str]:
    """Documents from a UTF-8 file, separated by blank lines."""
    docs = [d.strip() for d in re.split(r"\n\s*\n", read_text(path, "corpus"))]
    return [d for d in docs if d]


def write_corpus(path: str, docs: list[list[str]]) -> None:
    """One sentence per line, blank line between documents, written
    atomically."""
    text = "\n".join("".join(sent + "\n" for sent in doc) for doc in docs)
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def read_prepared(path: str) -> list[list[str]]:
    """Documents as sentence lists from a prepare-formatted file."""
    return [[l.strip() for l in doc.split("\n") if l.strip()]
            for doc in read_corpus(path)]


class Vocab:
    """Token <-> id mapping with the fixed special block at the front."""

    def __init__(self, tokens: list[str]):
        if tokens[:NUM_SPECIALS] != SPECIAL_TOKENS:
            raise ContractError("vocab must start with the special tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ContractError("vocab contains duplicate tokens")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK) for t in tokens]

    def save(self, path: str) -> None:
        """One token per line, written atomically."""
        text = "".join(t + "\n" for t in self.id_to_token)
        write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))

    @classmethod
    def load(cls, path: str) -> "Vocab":
        lines = read_text(path, "vocab").split("\n")
        return cls([line for line in lines if line.strip()])


def build_vocab(docs: list[str], size: int) -> Vocab:
    """Specials first, then the most frequent tokens up to ``size``.

    Frequency ties break lexicographically, so the same corpus always
    yields byte-identical vocab files.
    """
    if size <= NUM_SPECIALS:
        raise ContractError(f"vocab size must exceed {NUM_SPECIALS}")
    counts: dict[str, int] = {}
    for doc in docs:
        for tok in tokenize(doc):
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, _ in ranked[: size - NUM_SPECIALS]]
    return Vocab(SPECIAL_TOKENS + kept)


@dataclass
class Document:
    """Token ids per sentence, in original order."""
    sentences: list[list[int]]


def document_from_text(text: str, vocab: Vocab) -> Document:
    return document_from_sentences(segment_sentences(text), vocab)


def document_from_sentences(sentences: list[str], vocab: Vocab) -> Document:
    """Encode each sentence that has a token; sentences without one drop."""
    tokenized = (tokenize(s) for s in sentences)
    return Document([vocab.encode(toks) for toks in tokenized if toks])


def merge_to_max(doc: Document, max_sentences: int, rng) -> Document:
    """Concatenate uniformly random adjacent pairs until at most M remain.

    Token order inside the document never changes, only sentence
    boundaries disappear.
    """
    if max_sentences < 1:
        raise ContractError("max_sentences must be >= 1")
    sents = [list(s) for s in doc.sentences]
    while len(sents) > max_sentences:
        i = int(rng.integers(0, len(sents) - 1))
        sents[i] = sents[i] + sents[i + 1]
        del sents[i + 1]
    return Document(sents)


@dataclass
class PackedExample:
    """One fixed-length model input.

    ``sentence_spans`` holds one (sent_pos, word_start, word_end) triple
    per sentence, end exclusive, covering exactly the non-special
    positions of the used region. ``attention_len`` counts the non-pad
    prefix. ``segment_ids`` stays all zeros for pretraining. ``perm``
    (from shuffling) maps each sentence to its display slot.
    """
    token_ids: np.ndarray
    position_ids: np.ndarray
    sentence_ids: np.ndarray
    segment_ids: np.ndarray
    sentence_spans: list[tuple[int, int, int]]
    attention_len: int
    num_sentences: int
    mlm_labels: np.ndarray | None = None
    perm: np.ndarray | None = None


def pack_segments(segments: list[list[list[int]]], seq_len: int,
                  max_sentences: int, use_sentence_tokens: bool = True,
                  lead=()) -> PackedExample:
    """Lay out segments of sentences in the one input layout.

    Writes [CLS], then the unmarked ``lead`` words closed by [SEP] when
    there are any, then each segment's sentences closed by that
    segment's own [SEP]. Segment ids count the [SEP]-closed blocks from
    zero; every kept sentence takes the next sentence-id slot. A
    sentence keeps as many words as fit before the [SEP]s still to be
    written (and its own marker); packing stops at ``max_sentences`` or
    when no word fits. Empty sentences are skipped, and the lead is cut
    so one marked word of the first segment still fits.
    """
    marker = 1 if use_sentence_tokens else 0
    token_ids = np.full(seq_len, PAD, dtype=np.int64)
    sentence_ids = np.full(seq_len, max_sentences, dtype=np.int64)
    segment_ids = np.zeros(seq_len, dtype=np.int64)
    spans: list[tuple[int, int, int]] = []

    token_ids[0] = CLS
    pos = 1
    first_segment = 0
    if len(lead):
        lead = lead[:max(0, seq_len - 3 - len(segments) - marker)]
        token_ids[pos:pos + len(lead)] = lead
        pos += len(lead)
        token_ids[pos] = SEP
        pos += 1
        first_segment = 1
    for i, sentences in enumerate(segments):
        seps_left = len(segments) - i
        block_start = pos
        for words in sentences:
            if not len(words):
                continue
            take = min(len(words), seq_len - pos - seps_left - marker)
            if len(spans) >= max_sentences or take <= 0:
                break
            if marker:
                token_ids[pos] = SENT
            start = pos + marker
            token_ids[start:start + take] = words[:take]
            sentence_ids[pos:start + take] = len(spans)
            spans.append((pos if marker else -1, start, start + take))
            pos = start + take
        token_ids[pos] = SEP
        pos += 1
        segment_ids[block_start:pos] = first_segment + i
    position_ids = np.zeros(seq_len, dtype=np.int64)
    position_ids[:pos] = np.arange(pos)

    return PackedExample(
        token_ids=token_ids,
        position_ids=position_ids,
        sentence_ids=sentence_ids,
        segment_ids=segment_ids,
        sentence_spans=spans,
        attention_len=pos,
        num_sentences=len(spans),
    )


def pack_example(doc: Document, seq_len: int, max_sentences: int, rng,
                 use_sentence_tokens: bool = True) -> PackedExample | None:
    """Merge a document to at most M sentences and lay it out as one
    segment; returns None when nothing fits.

    Sentences beyond the length budget are dropped from the tail, and
    the last kept sentence is truncated to the remaining room (a
    sentence reduced to zero words is dropped entirely, reducing N).
    """
    if seq_len < 4:
        raise ContractError("seq_len must allow [CLS] [SENT] w [SEP]")
    merged = merge_to_max(doc, max_sentences, rng)
    ex = pack_segments([merged.sentences], seq_len, max_sentences,
                       use_sentence_tokens)
    return ex if ex.num_sentences else None
