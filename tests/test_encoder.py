import numpy as np
import pytest

from slm import tensor as T
from slm.encoder import (attention_bias, embed, encode, encode_batch,
                         extract_summary, pad_rows)
from slm.errors import ContractError
from slm.model import parameter_counts, param_shapes
from slm.shuffling import apply_shuffle, identity_record, sample_permutation
from slm.textpipe import Document, pack_example

from util import (build_params, encode_all_rows, encode_full_length,
                  masked_example, physical_shuffle, small_config)


def ids(*vals):
    return np.asarray([list(vals)], dtype=np.int64)


def test_embed_is_sum_of_table_rows():
    cfg = small_config(encoder_layers=0)
    params = build_params(cfg)
    tok, pos, sent, seg = ids(7), ids(3), ids(1), ids(0)
    h0 = embed(params, cfg, tok, pos, sent, seg)
    manual = (params["emb.token"].data[7] + params["emb.position"].data[3]
              + params["emb.sentence"].data[1] + params["emb.segment"].data[0])
    mu = manual.mean()
    var = ((manual - mu) ** 2).mean()
    expect = (manual - mu) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(h0.data[0, 0], expect, atol=1e-6)


def test_embed_zero_tables_give_beta():
    cfg = small_config()
    params = build_params(cfg)
    for name in ("emb.token", "emb.position", "emb.sentence", "emb.segment"):
        params[name].data[:] = 0.0
    params["emb.ln.b"].data[:] = 0.5
    h0 = embed(params, cfg, ids(7), ids(3), ids(1), ids(0))
    np.testing.assert_allclose(h0.data[0, 0], np.full(cfg.hidden, 0.5), atol=1e-6)


def test_embed_out_of_range_ids_rejected():
    cfg = small_config()
    params = build_params(cfg)
    with pytest.raises(ContractError):
        embed(params, cfg, ids(cfg.vocab_size), ids(0), ids(0), ids(0))
    with pytest.raises(ContractError):
        embed(params, cfg, ids(1), ids(cfg.seq_len), ids(0), ids(0))


def test_zero_layers_return_h0():
    cfg = small_config(encoder_layers=0)
    params = build_params(cfg)
    rng = np.random.default_rng(0)
    ex = masked_example(cfg, rng)
    h0 = embed(params, cfg, ex.token_ids[None], ex.position_ids[None],
               ex.sentence_ids[None], ex.segment_ids[None])
    h = encode(params, cfg, h0, attention_bias([ex.attention_len], cfg.seq_len))
    np.testing.assert_array_equal(h.data, h0.data)


def test_pad_content_cannot_leak_into_real_rows():
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(1)
    ex = masked_example(cfg, rng)
    h1 = encode_batch(params, cfg, [ex])
    poisoned = ex.token_ids.copy()
    poisoned[ex.attention_len:] = 9  # arbitrary real token id in the pad zone
    from dataclasses import replace
    ex2 = replace(ex, token_ids=poisoned)
    h2 = encode_batch(params, cfg, [ex2])
    np.testing.assert_allclose(h1.data[0, :ex.attention_len],
                               h2.data[0, :ex.attention_len], atol=1e-6)


def test_row_permutation_equivariance():
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(2)
    ex = masked_example(cfg, rng)
    n = ex.attention_len
    h = encode_full_length(params, cfg, [ex])

    order = np.concatenate([rng.permutation(n),
                            np.arange(n, cfg.seq_len)])
    from dataclasses import replace
    ex_p = replace(
        ex,
        token_ids=ex.token_ids[order],
        position_ids=ex.position_ids[order],
        sentence_ids=ex.sentence_ids[order],
        segment_ids=ex.segment_ids[order],
    )
    h_p = encode_full_length(params, cfg, [ex_p])
    np.testing.assert_allclose(h_p.data[0], h.data[0][order], atol=1e-5)


def test_summary_has_n_plus_2_rows_and_matches_h():
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(3)
    doc = Document([[8, 9], [10], [11, 12]])
    ex = identity_record(pack_example(doc, cfg.seq_len, cfg.max_sentences, rng))
    h = encode_batch(params, cfg, [ex])
    c = extract_summary(h, ex, 0)
    assert c.shape == (1, 5, cfg.hidden)
    np.testing.assert_array_equal(c.data[0, 0], h.data[0, 0])
    for k, (sent_pos, _, _) in enumerate(ex.sentence_spans):
        np.testing.assert_array_equal(c.data[0, k + 1], h.data[0, sent_pos])
    np.testing.assert_array_equal(c.data[0, 4], h.data[0, ex.attention_len - 1])


def test_summary_20_sentences_gives_22_rows():
    cfg = small_config(seq_len=64, max_sentences=20)
    params = build_params(cfg)
    rng = np.random.default_rng(4)
    doc = Document([[7] for _ in range(20)])
    ex = identity_record(pack_example(doc, cfg.seq_len, 20, rng))
    h = encode_batch(params, cfg, [ex])
    assert extract_summary(h, ex, 0).shape == (1, 22, cfg.hidden)


def test_virtual_equals_physical_shuffle():
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(5)
    for _ in range(5):
        ex = masked_example(cfg, rng, n_sents=int(rng.integers(2, 5)))
        perm = sample_permutation(ex.num_sentences, rng)
        virt = apply_shuffle(ex, perm)
        phys = physical_shuffle(ex, perm)
        hv = encode_batch(params, cfg, [virt])
        hp = encode_batch(params, cfg, [phys])
        # row correspondence: memory position p in the virtual layout has
        # position id q, and the physical layout stores that token at q
        q = virt.position_ids[:virt.attention_len]
        np.testing.assert_allclose(hp.data[0][q], hv.data[0][:virt.attention_len],
                                   atol=1e-5)
        cv = extract_summary(hv, virt, 0)
        cp = extract_summary(hp, phys, 0)
        np.testing.assert_allclose(cv.data, cp.data, atol=1e-5)


def test_decoder_encoder_parameter_ratio_paper_profile():
    from slm.config import resolve_config
    cfg = resolve_config("paper")
    enc, dec = parameter_counts(cfg)
    assert dec / enc < 0.30
    # sanity anchors on the counting itself
    shapes = dict(param_shapes(cfg))
    assert shapes["emb.token"] == (30522, 768)
    assert shapes["dec.2.cross.wq"] == (768, 768)
    assert enc > 100_000_000



def test_no_grad_encode_stops_at_longest_real_row():
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(7)
    batch = [identity_record(masked_example(cfg, rng, n_sents=n))
             for n in (1, 4, 2)]
    full = encode_full_length(params, cfg, batch)
    with T.no_grad():
        short = encode_batch(params, cfg, batch)
    recorded = encode_batch(params, cfg, batch)
    width = max(ex.attention_len for ex in batch)
    assert len({ex.attention_len for ex in batch}) > 1
    assert width < cfg.seq_len
    assert full.shape == (3, cfg.seq_len, cfg.hidden)
    assert short.shape == (3, width, cfg.hidden)
    # recording a graph changes neither the width nor the bits
    np.testing.assert_array_equal(recorded.data, short.data)
    for b, ex in enumerate(batch):
        np.testing.assert_allclose(short.data[b, :ex.attention_len],
                                   full.data[b, :ex.attention_len], atol=1e-5)
        np.testing.assert_allclose(extract_summary(short, ex, b).data,
                                   extract_summary(full, ex, b).data,
                                   atol=1e-5)


def test_encode_batch_draws_dropout_only_when_training():
    """A pass without training hands its rng to no dropout: the rng's
    state stays as it was and the output equals a pass without an rng."""
    cfg = small_config(dropout=0.1)
    params = build_params(cfg)
    batch = [identity_record(masked_example(cfg, np.random.default_rng(3)))]
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    h = encode_batch(params, cfg, batch, rng, training=False)
    assert rng.bit_generator.state == state
    assert h.data.tobytes() == encode_batch(params, cfg, batch).data.tobytes()
    dropped = encode_batch(params, cfg, batch, rng, training=True)
    assert rng.bit_generator.state != state
    assert not np.array_equal(dropped.data, h.data)


# the suite's small model, the tiny profile's widths on the benchmark's
# story and long-document lengths, and the learning check's model
ROW_SHAPES = [
    dict(encoder_layers=0), dict(encoder_layers=1), dict(encoder_layers=2),
    dict(hidden=64, ffn=256, seq_len=128, max_sentences=8),
    dict(hidden=64, ffn=256, seq_len=256, max_sentences=20),
    dict(hidden=128, heads=4, ffn=256, seq_len=64, max_sentences=4,
         encoder_layers=4),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ROW_SHAPES,
                         ids=lambda kw: ",".join(f"{k}={v}"
                                                 for k, v in kw.items()))
def test_selected_rows_equal_the_full_encode_bit_for_bit(shape, dtype):
    """Random batches of mixed attention_len, rows drawn anywhere below
    the width: real, repeated and padding positions, one row or many."""
    cfg = small_config(**shape)
    params = build_params(cfg, dtype=dtype)
    rng = np.random.default_rng(11)
    mixed = False
    for trial in range(30):
        batch = [identity_record(masked_example(
            cfg, rng, n_sents=int(rng.integers(1, cfg.max_sentences + 1))))
            for _ in range(int(rng.integers(1, 6)))]
        width = max(ex.attention_len for ex in batch)
        mixed |= len({ex.attention_len for ex in batch}) > 1
        count = 1 if trial == 0 else int(rng.integers(2, 25))
        rows = rng.integers(0, width, size=(len(batch), count))
        rows[:, -1] = rows[:, 0]                    # a repeated position
        with T.no_grad():
            full = encode_batch(params, cfg, batch).data
            picked = encode_batch(params, cfg, batch, rows=rows)
        assert picked.shape == (len(batch), count, cfg.hidden)
        assert picked.data.dtype == dtype
        np.testing.assert_array_equal(
            picked.data, np.take_along_axis(full, rows[:, :, None], axis=1))
    assert mixed


def test_selected_rows_record_a_graph():
    """With a graph, the selected rows keep the full encode's values and
    gradients reach the parameters through them."""
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(12)
    batch = [identity_record(masked_example(cfg, rng, n_sents=n))
             for n in (1, 3)]
    rows = pad_rows([[0, 2], [0, 1, 4]])
    picked = encode_batch(params, cfg, batch, rows=rows)
    np.testing.assert_array_equal(
        picked.data, encode_all_rows(params, cfg, batch, rows=rows).data)
    for p in params.values():
        p.requires_grad = True
    T.backward(T.tsum(encode_batch(params, cfg, batch, rows=rows)))
    assert np.any(params["enc.1.ffn.w1"].grad)
    assert np.any(params["emb.token"].grad)


def test_rows_outside_the_width_or_badly_shaped_are_refused():
    cfg = small_config()
    params = build_params(cfg)
    batch = [identity_record(masked_example(cfg, np.random.default_rng(13)))]
    width = batch[0].attention_len
    for rows in (np.array([[width]]), np.array([[-1, 0]]), np.array([0, 1]),
                 np.zeros((2, 1), dtype=np.int64)):
        with pytest.raises(ContractError, match="rows|row positions"):
            encode_batch(params, cfg, batch, rows=rows)


def test_pad_rows_fills_with_cls():
    rows = pad_rows([[0, 3, 5], [0], np.array([0, 2])])
    np.testing.assert_array_equal(rows, [[0, 3, 5], [0, 0, 0], [0, 2, 0]])
    assert rows.dtype == np.int64


def test_readers_without_sentence_markers_are_refused():
    from slm.probe import export_reps
    from slm.trainer import evaluate_unshuffle
    from slm.textpipe import SPECIAL_TOKENS, Vocab

    cfg = small_config(sentence_reps_enabled=False, sr_enabled=False)
    params = build_params(cfg)
    ex = masked_example(cfg, np.random.default_rng(14))
    with pytest.raises(ContractError, match="sentence representations"):
        evaluate_unshuffle(params, cfg, [ex])
    with pytest.raises(ContractError, match="sentence representations"):
        export_reps(params, cfg, [["the cat sat."]],
                    Vocab(SPECIAL_TOKENS + ["the", "cat", "sat"]))


def test_readers_of_a_few_rows_match_the_full_encode(monkeypatch):
    """Unshuffle eval, probe export and classification scoring give the
    same bytes as when every row runs through the last layer."""
    from slm import heads, probe, trainer
    from slm.textpipe import SPECIAL_TOKENS, Vocab

    words = ["the", "cat", "sat", "dog", "ran", "sun", "rose", "home"]
    vocab = Vocab(SPECIAL_TOKENS + words)
    cfg = small_config(vocab_size=len(vocab.id_to_token), batch_size=3)
    params = build_params(cfg, seed=3)
    rng = np.random.default_rng(15)
    texts = [[" ".join(rng.choice(words, size=int(rng.integers(1, 5))))
              + "." for _ in range(int(rng.integers(1, 5)))]
             for _ in range(7)]
    packed = trainer.pack_corpus(
        [Document([vocab.encode(t.rstrip(".").split()) for t in doc])
         for doc in texts], cfg)
    singles = [heads.pack_pair(doc[0], None, vocab, cfg) for doc in texts]
    head = heads.init_cls_head(cfg, 3, 1, np.random.default_rng(0))
    classify = heads.classify

    def readers():
        logits = []

        def recording(*args):
            out, loss = classify(*args)
            logits.append(out.data.tobytes())
            return out, loss

        monkeypatch.setattr(heads, "classify", recording)
        return (trainer.evaluate_unshuffle(params, cfg, packed, seed=2),
                probe.export_reps(params, cfg, texts, vocab).matrix.tobytes(),
                heads.cls_accuracy(params, head, cfg, singles), logits)

    selected = readers()
    for module in (trainer, probe, heads):
        monkeypatch.setattr(module, "encode_batch", encode_all_rows)
    assert readers() == selected
