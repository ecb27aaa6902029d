"""The one layout routine behind pretraining, pair and QA inputs."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slm.errors import DataError
from slm.heads import pack_pair, pack_qa
from slm.textpipe import (CLS, SENT, SEP, SPECIAL_TOKENS, Document, Vocab,
                          document_from_text, merge_to_max, pack_example)

from util import small_config

# no word here is an abbreviation or a single letter, so every ". " in
# a generated text ends a sentence
WORDS = ["cat", "dog", "bird", "tree", "rock", "moon", "lake", "wind",
         "fire", "snow"]
VOCAB = Vocab(SPECIAL_TOKENS + WORDS + ["."])
FIELDS = ("token_ids", "position_ids", "sentence_ids", "segment_ids",
          "sentence_spans", "attention_len", "num_sentences")


def cfg_for(seq_len, max_sentences, markers=True):
    return small_config(vocab_size=len(VOCAB.id_to_token), seq_len=seq_len,
                        max_sentences=max_sentences,
                        sentence_reps_enabled=markers, sr_enabled=markers)


def text_of(sentences):
    """Sentences of vocab indices as text: capitalized, '.'-terminated."""
    return " ".join(" ".join(WORDS[w] for w in s).capitalize() + "."
                    for s in sentences)


def assert_same_fields(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=name)
        else:
            assert x == y, name


def check_layout(ex, seq_len, sentences, lead_len=0, markers=True):
    """Invariants every packed example keeps; ``sentences`` are the
    source sentences in packing order, ``lead_len`` the unmarked words
    between [CLS] and the first [SEP]."""
    n = ex.attention_len
    assert 2 <= n <= seq_len
    assert ex.token_ids[0] == CLS and ex.token_ids[n - 1] == SEP
    np.testing.assert_array_equal(
        ex.position_ids, np.concatenate([np.arange(n),
                                         np.zeros(seq_len - n, np.int64)]))
    assert np.all(np.diff(ex.segment_ids[:n]) >= 0)
    assert not ex.segment_ids[n:].any()
    assert ex.num_sentences == len(ex.sentence_spans)

    covered = []
    for k, (sent_pos, start, end) in enumerate(ex.sentence_spans):
        words = ex.token_ids[start:end].tolist()
        assert 1 <= len(words) <= len(sentences[k])
        assert words == sentences[k][:len(words)]
        if len(words) < len(sentences[k]):
            assert k == ex.num_sentences - 1  # only the last is cut
        if markers:
            assert sent_pos == start - 1 and ex.token_ids[sent_pos] == SENT
        else:
            assert sent_pos == -1
        assert np.all(ex.sentence_ids[start - markers:end] == k)
        covered.extend(range(start, end))
    # every position that is not [CLS], [SENT], [SEP] or a lead word
    # belongs to exactly one span
    specials = np.isin(ex.token_ids[:n], [CLS, SENT, SEP])
    specials[1:1 + lead_len] = True
    assert covered == np.flatnonzero(~specials).tolist()
    # [CLS], [SEP], lead words and pads all take the reserved row
    outside = ex.token_ids != SENT
    outside[covered] = False
    assert np.all(ex.sentence_ids[outside] == ex.sentence_ids[0])

    kept = sum(end - start for _, start, end in ex.sentence_spans)
    return kept < sum(len(s) for s in sentences)


sentence_st = st.lists(st.integers(0, len(WORDS) - 1), min_size=1,
                       max_size=9)
layout_st = dict(seq_len=st.integers(6, 48), max_sentences=st.integers(1, 8),
                 markers=st.booleans())
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY
@given(doc=st.lists(st.lists(st.integers(6, 60), max_size=9), max_size=10),
       **layout_st)
def test_document_layout_properties(doc, seq_len, max_sentences, markers):
    ex = pack_example(Document(doc), seq_len, max_sentences,
                      np.random.default_rng(0), markers)
    merged = merge_to_max(Document(doc), max_sentences,
                          np.random.default_rng(0))
    sentences = [s for s in merged.sentences if s]
    if ex is None:
        assert not sentences
        return
    assert not ex.segment_ids.any()
    if check_layout(ex, seq_len, sentences, markers=markers):
        # words were dropped only because nothing more fit
        assert ex.attention_len >= seq_len - markers


@PROPERTY
@given(text_a=st.lists(sentence_st, min_size=1, max_size=4),
       text_b=st.one_of(st.none(), st.lists(sentence_st, min_size=1,
                                            max_size=4)),
       **layout_st)
def test_pair_layout_properties(text_a, text_b, seq_len, max_sentences,
                                markers):
    texts = [t for t in (text_a, text_b) if t is not None]
    try:
        ex = pack_pair(text_of(text_a),
                       None if text_b is None else text_of(text_b),
                       VOCAB, cfg_for(seq_len, max_sentences, markers))
    except DataError:
        assume(False)  # a text without room for its marker
    groups = [document_from_text(text_of(t), VOCAB).sentences for t in texts]
    packed = ex.packed
    n_seps = int(np.sum(packed.token_ids == SEP))
    assert n_seps == len(texts)
    assert packed.segment_ids[packed.attention_len - 1] == len(texts) - 1
    # spans follow the texts in order; a text's sentences are a prefix
    sentences, seg_of = [], []
    for seg, group in enumerate(groups):
        in_seg = sum(packed.segment_ids[s] == seg
                     for _, s, _ in packed.sentence_spans)
        sentences += group[:in_seg]
        seg_of += [seg] * in_seg
    truncated = check_layout(packed, seq_len, sentences, markers=markers)
    if markers:
        assert ex.rows == [0] + [
            packed.sentence_spans[seg_of.index(seg)][0]
            for seg in range(len(texts))]
    else:
        assert ex.rows == [0]
    dropped = truncated or len(sentences) < sum(map(len, groups))
    if dropped and packed.num_sentences < max_sentences:
        assert packed.attention_len >= seq_len - markers


@PROPERTY
@given(context=st.lists(sentence_st, min_size=1, max_size=6),
       question=sentence_st, seq_len=st.integers(6, 48),
       max_sentences=st.integers(1, 8))
def test_qa_layout_properties(context, question, seq_len, max_sentences):
    ex = pack_qa(text_of(context), text_of([question]), 0, 0, VOCAB,
                 cfg_for(seq_len, max_sentences))
    packed = ex.packed
    lead = int(np.flatnonzero(packed.token_ids == SEP)[0]) - 1
    assert 1 <= lead <= len(question) + 1
    assert not packed.segment_ids[:lead + 2].any()
    assert packed.segment_ids[lead + 2:packed.attention_len].all()
    sentences = document_from_text(text_of(context), VOCAB).sentences
    check_layout(packed, seq_len, sentences, lead_len=lead)
    np.testing.assert_array_equal(
        ex.word_positions,
        np.concatenate([np.arange(s, e) for _, s, e in packed.sentence_spans]))
    np.testing.assert_array_equal(
        ex.marker_positions, [p for p, _, _ in packed.sentence_spans])
    assert ex.gold_sentence == 0


def test_single_text_pair_equals_pretraining_layout():
    """One text of at most M sentences packs the same either way, also
    when it fills the sequence: the last slot then holds [SEP]."""
    texts = [[[0, 1, 2]],
             [[0, 1], [2, 3, 4], [5]],
             [[w % 10 for w in range(20)], [w % 7 for w in range(20)]],
             [[1] * 29],
             [[2] * 30]]
    for markers in (True, False):
        for sentences in texts:
            cfg = cfg_for(32, 4, markers)
            text = text_of(sentences)
            pair = pack_pair(text, None, VOCAB, cfg).packed
            single = pack_example(document_from_text(text, VOCAB), 32, 4,
                                  np.random.default_rng(0), markers)
            assert_same_fields(pair, single)
    full = pack_pair(text_of(texts[2]), None, VOCAB, cfg_for(32, 4)).packed
    assert full.attention_len == 32
    assert full.token_ids[31] == SEP
