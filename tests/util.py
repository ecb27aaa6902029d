"""Shared test fixtures: tiny configs, random documents, an independent
physical-shuffle constructor used as the equivalence oracle, a
full-length encode used as the oracle for the trimmed one, and an
every-row encode used as the oracle for the row-selected one."""
import numpy as np

from slm.config import RunConfig
from slm.encoder import attention_bias, embed, encode, encode_batch
from slm.masking import apply_span_masking
from slm.model import init_params, select_rows
from slm.textpipe import CLS, NUM_SPECIALS, PAD, SEP, Document, PackedExample, pack_example


def small_config(**kw) -> RunConfig:
    base = dict(encoder_layers=2, decoder_layers=1, heads=2, hidden=16,
                ffn=32, seq_len=32, max_sentences=6, vocab_size=40,
                dropout=0.0, attn_dropout=0.0)
    base.update(kw)
    return RunConfig(**base).validate()


def random_document(rng, n_sents=None, max_words=6, vocab_size=40) -> Document:
    n = int(n_sents if n_sents is not None else rng.integers(1, 5))
    return Document([
        [int(w) for w in rng.integers(NUM_SPECIALS, vocab_size,
                                      size=int(rng.integers(1, max_words + 1)))]
        for _ in range(n)])


def build_params(cfg: RunConfig, seed=0, dtype=np.float32):
    return init_params(cfg, np.random.default_rng(seed), dtype)


def encode_full_length(params: dict, cfg: RunConfig, examples, rng=None,
                       training: bool = False, *, rows=None):
    """[B, seq_len, hidden]: embed + encode over every position, padding
    keys masked, where ``encode_batch`` stops at the longest real row.
    With ``rows``, every row still runs through every layer and then the
    ``rows`` asked for are kept, [B, R, hidden]. Takes ``encode_batch``'s
    arguments, so it can stand in for it."""
    rng = rng if training else None

    def stack(field):
        return np.stack([getattr(ex, field) for ex in examples])

    bias = attention_bias([ex.attention_len for ex in examples], cfg.seq_len,
                          dtype=params["emb.token"].data.dtype)
    h0 = embed(params, cfg, stack("token_ids"), stack("position_ids"),
               stack("sentence_ids"), stack("segment_ids"), rng)
    h = encode(params, cfg, h0, bias, rng)
    return h if rows is None else select_rows(h, rows)


def encode_all_rows(params: dict, cfg: RunConfig, examples, rng=None,
                    training: bool = False, *, rows=None):
    """``encode_batch`` with every row through every layer, then the
    ``rows`` asked for, where ``encode_batch`` runs only those through
    the last layer. Takes its arguments, so it can stand in for it."""
    h = encode_batch(params, cfg, examples, rng, training)
    return h if rows is None else select_rows(h, rows)


def masked_example(cfg: RunConfig, rng, n_sents=3):
    doc = random_document(rng, n_sents=n_sents, vocab_size=cfg.vocab_size)
    ex = pack_example(doc, cfg.seq_len, cfg.max_sentences, rng)
    return apply_span_masking(ex, cfg, rng)


def physical_shuffle(ex: PackedExample, perm: np.ndarray) -> PackedExample:
    """Physically reorder sentence blocks in memory, the way a literal
    reading of "shuffle the sentences" would; built independently of
    apply_shuffle so the two can check each other.

    Tokens and labels move together; position ids are the natural
    sequence; sentence ids number the blocks in their new order. The
    spans stay listed per original sentence and the result records
    ``perm`` itself: sentence s stands in slot perm[s], which here is
    also its place in memory, so the summary rows and the targets are
    the ones ``perm`` defines.
    """
    n = ex.num_sentences
    seq_len = ex.token_ids.shape[0]
    token_ids = np.full(seq_len, PAD, dtype=np.int64)
    labels_src = ex.mlm_labels if ex.mlm_labels is not None else None
    labels = None if labels_src is None else np.full(seq_len, -1, dtype=np.int64)
    sentence_ids = np.full(seq_len, ex.sentence_ids.max(), dtype=np.int64)
    occupant = np.empty(n, dtype=np.int64)
    occupant[np.asarray(perm)] = np.arange(n)

    pos = 0
    token_ids[pos] = CLS
    pos += 1
    spans = [None] * n
    for slot in range(n):
        s = occupant[slot]
        sent_pos, start, end = ex.sentence_spans[s]
        block = list(range(sent_pos, end)) if sent_pos >= 0 else list(range(start, end))
        marker = pos if sent_pos >= 0 else -1
        for src in block:
            token_ids[pos] = ex.token_ids[src]
            sentence_ids[pos] = slot
            if labels is not None:
                labels[pos] = labels_src[src]
            pos += 1
        word_start = marker + 1 if marker >= 0 else marker
        spans[s] = (marker, word_start, pos)
    token_ids[pos] = SEP
    attention_len = pos + 1
    position_ids = np.zeros(seq_len, dtype=np.int64)
    position_ids[:attention_len] = np.arange(attention_len)

    return PackedExample(
        token_ids=token_ids,
        position_ids=position_ids,
        sentence_ids=sentence_ids,
        segment_ids=np.zeros(seq_len, dtype=np.int64),
        sentence_spans=spans,
        attention_len=attention_len,
        num_sentences=n,
        mlm_labels=labels,
        perm=np.asarray(perm).copy(),
    )
