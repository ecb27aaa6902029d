import numpy as np
import pytest

from slm import tensor as T
from slm.encoder import attention_bias, embed, encode, encode_batch, extract_summary
from slm.errors import ContractError
from slm.model import parameter_counts, param_shapes
from slm.shuffling import apply_shuffle, identity_record, sample_permutation
from slm.textpipe import Document, pack_example

from util import (build_params, encode_full_length, masked_example,
                  physical_shuffle, small_config)


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
    expect = (manual - mu) / np.sqrt(var + cfg.layer_norm_eps)
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
    cfg = small_config(dropout=0.1, attn_dropout=0.1)
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
