import numpy as np
import pytest

from slm.errors import ContractError
from slm.textpipe import (CLS, NUM_SPECIALS, PAD, SENT, SEP, SPECIAL_TOKENS,
                          Document, Vocab, build_vocab, merge_to_max,
                          pack_example, segment_sentences, tokenize)

from util import unpack_words


def rng(seed=0):
    return np.random.default_rng(seed)


# -- segmentation ---------------------------------------------------------

def test_segment_two_plain_sentences():
    out = segment_sentences("I saw flowers on the ground. I heard birds in the trees.")
    assert out == ["I saw flowers on the ground.", "I heard birds in the trees."]


def test_segment_abbreviation_does_not_split():
    out = segment_sentences("Dr. Smith left. She ran.")
    assert out == ["Dr. Smith left.", "She ran."]


def test_segment_initial_does_not_split():
    out = segment_sentences("J. Smith arrived. He sat down.")
    assert out == ["J. Smith arrived.", "He sat down."]


def test_segment_exclamation_question():
    out = segment_sentences("Stop! Really? Yes.")
    assert out == ["Stop!", "Really?", "Yes."]


def test_segment_single_sentence_no_terminal():
    assert segment_sentences("Hello") == ["Hello"]


def test_segment_decimal_number_kept_together():
    out = segment_sentences("It cost 3. 5 dollars is too much. Fine.")
    # a digit after the boundary is a legitimate sentence start
    assert out[0] == "It cost 3."
    out2 = segment_sentences("It rose by 3.5 percent. Good.")
    assert out2 == ["It rose by 3.5 percent.", "Good."]


def test_segment_concatenation_preserved():
    docs = [
        "One day it rained. The river rose! Did anyone notice? Nobody did.",
        "Mr. Jones met Mrs. Lee. They talked for hours... Then they left.",
        "A single line without terminal punctuation",
    ]
    for text in docs:
        parts = segment_sentences(text)
        assert "".join(parts).replace(" ", "") == text.replace(" ", "")


def test_segment_empty_input():
    assert segment_sentences("   ") == []


@pytest.mark.parametrize("text, sentences", [
    pytest.param("Wait?! Yes. No...", ["Wait?!", "Yes.", "No..."],
                 id="run-?!"),
    pytest.param("Well... Then we left. Fine",
                 ["Well...", "Then we left.", "Fine"], id="run-..."),
    pytest.param("Run. ... Then stop.", ["Run. ...", "Then stop."],
                 id="lone-run"),
    pytest.param("a.b! c? D", ["a.b! c?", "D"], id="no-space-after"),
    pytest.param("He left.\tShe stayed.", ["He left.", "She stayed."],
                 id="tab"),
    pytest.param("He left.\nShe stayed.", ["He left.", "She stayed."],
                 id="newline"),
    pytest.param("He left.\xa0She stayed.", ["He left.", "She stayed."],
                 id="nbsp"),
    pytest.param("He left.\x1cShe stayed.", ["He left.", "She stayed."],
                 id="file-separator"),
    pytest.param("He left. \xc9mile stayed.",
                 ["He left.", "\xc9mile stayed."], id="latin-capital"),
    pytest.param("He left. \u03a3 was next.",
                 ["He left.", "\u03a3 was next."], id="greek-capital"),
    pytest.param("It ended. \u0663 came next.",
                 ["It ended.", "\u0663 came next."], id="arabic-digit"),
    pytest.param("\xc9T\xc9. \xc9t\xe9. \xe9t\xe9. X",
                 ["\xc9T\xc9.", "\xc9t\xe9. \xe9t\xe9.", "X"],
                 id="latin-lowercase"),
    pytest.param("He left. she stayed.", ["He left. she stayed."],
                 id="lowercase"),
    pytest.param("Mr. Brown ran. He won.", ["Mr. Brown ran.", "He won."],
                 id="abbreviation-first"),
    pytest.param("No. 5 won. Yes.", ["No. 5 won.", "Yes."],
                 id="abbreviation-digit"),
    pytest.param("J. Smith arrived.", ["J. Smith arrived."],
                 id="initial-first"),
    pytest.param(". A b", [".", "A b"], id="period-first"),
    pytest.param("The U.S. Army left. It rained.",
                 ["The U.S. Army left.", "It rained."], id="U.S."),
    pytest.param("Bring fruit, e.g. Apples. Then go.",
                 ["Bring fruit, e.g. Apples.", "Then go."], id="e.g."),
    pytest.param("We met at 9 a.m. Tom came later. Rain fell.",
                 ["We met at 9 a.m. Tom came later.", "Rain fell."],
                 id="a.m."),
])
def test_segment_edge_cases(text, sentences):
    """Terminal runs, every kind of whitespace ``str`` knows, non-ASCII
    capitals and digits, lowercase continuations and abbreviations."""
    assert segment_sentences(text) == sentences


# -- vocabulary -------------------------------------------------------------

def test_vocab_spec_example():
    v = build_vocab(["a a b"], size=8)
    assert v.id_to_token == SPECIAL_TOKENS + ["a", "b"]
    assert v.token_to_id["a"] == 6 and v.token_to_id["b"] == 7


def test_vocab_frequency_then_lexicographic():
    v = build_vocab(["b b c c a"], size=NUM_SPECIALS + 3)
    # b and c tie at 2 -> lexicographic; a comes last at 1
    assert v.id_to_token[NUM_SPECIALS:] == ["b", "c", "a"]


def test_vocab_truncates_to_size():
    v = build_vocab(["a b c d e f g h"], size=NUM_SPECIALS + 2)
    assert len(v) == NUM_SPECIALS + 2


def test_vocab_deterministic_and_round_trips(tmp_path):
    docs = ["The cat sat. The cat ran!", "A dog barked."]
    v1, v2 = build_vocab(docs, 30), build_vocab(docs, 30)
    assert v1.id_to_token == v2.id_to_token
    p = tmp_path / "vocab.txt"
    v1.save(str(p))
    v3 = Vocab.load(str(p))
    assert v3.id_to_token == v1.id_to_token


def test_vocab_unknown_maps_to_unk():
    v = build_vocab(["a"], size=8)
    assert v.encode(["a", "zzz"]) == [6, 1]


def test_tokenize_splits_punctuation_and_lowercases():
    assert tokenize("Hello, World!") == ["hello", ",", "world", "!"]


# -- merging ---------------------------------------------------------------

def test_merge_noop_when_under_limit():
    doc = Document([[1], [2], [3]])
    out = merge_to_max(doc, 5, rng())
    assert [s for s in out.sentences] == [[1], [2], [3]]


def test_merge_reaches_limit_and_preserves_order():
    r = rng(1)
    for _ in range(300):
        n = int(r.integers(1, 40))
        doc = Document([[int(x)] for x in range(n)])
        m = int(r.integers(1, 25))
        out = merge_to_max(doc, m, r)
        assert len(out.sentences) <= m
        flat = [w for s in out.sentences for w in s]
        assert flat == list(range(n))


def test_merge_single_sentence_with_max_one():
    out = merge_to_max(Document([[1], [2], [3]]), 1, rng())
    assert out.sentences == [[1, 2, 3]]


# -- packing -----------------------------------------------------------------

def test_pack_spec_layout():
    ex = pack_example(Document([[10, 11, 12], [13, 14]]), 16, 20, rng())
    assert ex.token_ids.tolist() == [
        CLS, SENT, 10, 11, 12, SENT, 13, 14, SEP] + [PAD] * 7
    assert ex.attention_len == 9
    assert ex.num_sentences == 2
    assert ex.position_ids[:9].tolist() == list(range(9))
    assert ex.sentence_spans == [(1, 2, 5), (5, 6, 8)]


def test_pack_minimal_example():
    ex = pack_example(Document([[9]]), 8, 4, rng())
    assert ex.attention_len == 4
    assert ex.token_ids[:4].tolist() == [CLS, SENT, 9, SEP]


def test_pack_sentence_ids_use_reserved_row():
    m = 6
    ex = pack_example(Document([[7, 8], [9]]), 12, m, rng())
    assert ex.sentence_ids[0] == m  # [CLS]
    assert ex.sentence_ids[ex.attention_len - 1] == m  # [SEP]
    assert np.all(ex.sentence_ids[ex.attention_len:] == m)  # pads
    assert ex.sentence_ids[1:4].tolist() == [0, 0, 0]
    assert ex.sentence_ids[4:6].tolist() == [1, 1]


def test_pack_merges_down_to_max():
    doc = Document([[i] for i in range(25)])
    ex = pack_example(doc, 128, 20, rng(3))
    assert ex.num_sentences == 20


def test_pack_truncates_tail_sentence():
    ex = pack_example(Document([[1, 2, 3], [4, 5, 6, 7]]), 10, 20, rng())
    # budget 8 after [CLS]/[SEP]: s0 takes [SENT]+3, s1 fits [SENT]+3 of 4
    assert ex.num_sentences == 2
    assert unpack_words(ex) == [1, 2, 3, 4, 5, 6]
    assert ex.attention_len == 10


def test_pack_drops_sentence_without_room_for_words():
    ex = pack_example(Document([[1, 2, 3, 4, 5], [6]]), 9, 20, rng())
    # budget 7 after CLS/SEP: s0 takes SENT+5=6, one slot left -> s1 dropped
    assert ex.num_sentences == 1
    assert unpack_words(ex) == [1, 2, 3, 4, 5]


def test_pack_empty_document_skips():
    assert pack_example(Document([]), 16, 4, rng()) is None
    assert pack_example(Document([[]]), 16, 4, rng()) is None


def test_pack_word_recovery_random_docs():
    r = rng(7)
    for _ in range(200):
        n_sents = int(r.integers(1, 8))
        doc = Document([[int(x) for x in r.integers(6, 99, size=r.integers(1, 9))]
                        for _ in range(n_sents)])
        total = sum(len(s) for s in doc.sentences)
        ex = pack_example(doc, 96, 8, r)
        flat = [w for s in doc.sentences for w in s]
        assert unpack_words(ex) == flat[:len(unpack_words(ex))]
        if total + n_sents + 2 <= 96 and n_sents <= 8:
            assert unpack_words(ex) == flat


def test_pack_spans_tile_word_region():
    r = rng(11)
    for _ in range(100):
        doc = Document([[6] * int(r.integers(1, 6)) for _ in range(int(r.integers(1, 6)))])
        ex = pack_example(doc, 48, 8, r)
        covered = []
        for sent_pos, start, end in ex.sentence_spans:
            assert ex.token_ids[sent_pos] == SENT
            assert start == sent_pos + 1 and end > start
            covered.extend(range(start, end))
        specials = {0, ex.attention_len - 1}
        specials.update(sp for sp, _, _ in ex.sentence_spans)
        expected = [p for p in range(ex.attention_len) if p not in specials]
        assert covered == expected


def test_pack_position_multiset():
    ex = pack_example(Document([[1, 2], [3], [4, 5, 6]]), 32, 8, rng())
    assert sorted(ex.position_ids[:ex.attention_len].tolist()) == list(range(ex.attention_len))


def test_pack_without_sentence_tokens():
    ex = pack_example(Document([[10, 11], [12]]), 12, 8, rng(),
                      use_sentence_tokens=False)
    assert ex.token_ids[:6].tolist() == [CLS, 10, 11, 12, SEP, PAD]
    assert all(sp[0] == -1 for sp in ex.sentence_spans)


def test_pack_rejects_tiny_seq_len():
    with pytest.raises(ContractError):
        pack_example(Document([[1]]), 3, 4, rng())
