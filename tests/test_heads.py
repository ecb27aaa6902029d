import json

import numpy as np
import pytest

from slm import heads
from slm import tensor as T
from slm.encoder import encode_batch
from slm.errors import ContractError, DataError
from slm.heads import (best_span, classify, cls_accuracy, feature_rows,
                       finetune_cls, finetune_qa, init_cls_head, pack_pair,
                       pack_qa, qa_forward, qa_metrics, read_cls_tsv,
                       read_qa_jsonl, init_qa_head)
from slm.model import NEG_INF
from slm.tensor import Tensor
from slm.textpipe import CLS, SENT, SEP, Vocab, SPECIAL_TOKENS

from util import build_params, encode_full_length, small_config


def toy_vocab():
    words = ["the", "cat", "sat", "dog", "ran", "fast", "sun", "rose",
             "red", "blue", "one", "two", "bird", "flew", "home", "now"]
    return Vocab(SPECIAL_TOKENS + words)


def cfg_for(vocab, **kw):
    base = dict(vocab_size=len(vocab.id_to_token), seq_len=32,
                max_sentences=6, dropout=0.0)
    base.update(kw)
    return small_config(**base)


def test_pack_single_text_layout():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    ex = pack_pair("the cat sat", None, vocab, cfg)
    ids = ex.packed.token_ids
    assert ids[0] == CLS and ids[1] == SENT
    assert ids[5] == SEP
    assert ex.packed.attention_len == 6
    assert ex.markers == [1]
    assert ex.num_texts == 1
    assert not ex.packed.segment_ids.any()


def test_pack_pair_segments_and_markers():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    ex = pack_pair("The cat sat home. The dog ran fast.", "the sun rose",
                   vocab, cfg)
    packed = ex.packed
    # text_a has two sentences, so the second text's marker comes third
    assert len(ex.markers) == 2
    assert packed.token_ids[ex.markers[0]] == SENT
    assert packed.token_ids[ex.markers[1]] == SENT
    seg = packed.segment_ids
    assert seg[ex.markers[0]] == 0
    assert seg[ex.markers[1]] == 1
    # [CLS] and everything through the first [SEP] is segment 0
    first_sep = int(np.flatnonzero(packed.token_ids == SEP)[0])
    assert not seg[:first_sep + 1].any()
    assert seg[first_sep + 1:packed.attention_len].all()
    assert packed.num_sentences == 3


def test_pack_pair_without_sentence_reps():
    vocab = toy_vocab()
    cfg = cfg_for(vocab, sentence_reps_enabled=False, sr_enabled=False)
    ex = pack_pair("the cat sat", "the dog ran", vocab, cfg)
    assert ex.markers == []
    assert SENT not in ex.packed.token_ids[:ex.packed.attention_len]


@pytest.mark.parametrize("markers", [True, False])
def test_pair_whose_second_text_gets_no_room_is_rejected(markers):
    # the first text fills the budget before the second keeps a word
    vocab = toy_vocab()
    cfg = cfg_for(vocab, seq_len=8, sentence_reps_enabled=markers,
                  sr_enabled=markers)
    with pytest.raises(DataError, match="no room"):
        pack_pair("cat dog cat dog cat dog cat dog", "dog cat", vocab, cfg)


def test_zero_projection_gives_uniform_probabilities():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    params = build_params(cfg)
    head = init_cls_head(cfg, 4, 1, np.random.default_rng(0))
    head["cls.w"].data[:] = 0.0
    ex = pack_pair("the cat sat", None, vocab, cfg)
    ex.label = 2.0
    h = encode_batch(params, cfg, [ex.packed], rows=feature_rows([ex], cfg))
    out, loss = classify(h, [ex], head, cfg)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-7)
    np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-6)


def test_classify_refuses_rows_other_than_the_feature_rows():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    params = build_params(cfg)
    head = init_cls_head(cfg, 2, 1, np.random.default_rng(0))
    ex = pack_pair("the cat sat", None, vocab, cfg)
    h = encode_batch(params, cfg, [ex.packed])
    with pytest.raises(ContractError, match="feature rows"):
        classify(h, [ex], head, cfg)


def test_feature_width_tracks_sentence_inputs():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    rng = np.random.default_rng(0)
    assert init_cls_head(cfg, 2, 1, rng)["cls.w"].shape[0] == 2 * cfg.hidden
    assert init_cls_head(cfg, 2, 2, rng)["cls.w"].shape[0] == 3 * cfg.hidden
    off = cfg_for(vocab, sentence_reps_enabled=False, sr_enabled=False)
    assert init_cls_head(off, 2, 2, rng)["cls.w"].shape[0] == off.hidden


def test_mixed_sentence_counts_rejected():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    params = build_params(cfg)
    head = init_cls_head(cfg, 2, 2, np.random.default_rng(0))
    single = pack_pair("the cat sat", None, vocab, cfg)
    pair = pack_pair("the cat sat", "the dog ran", vocab, cfg)
    h = encode_batch(params, cfg, [pair.packed, single.packed])
    with pytest.raises(ContractError):
        classify(h, [pair, single], head, cfg)


def test_cls_accuracy_of_no_examples_is_a_contract_error():
    cfg = cfg_for(toy_vocab())
    head = init_cls_head(cfg, 2, 1, np.random.default_rng(0))
    with pytest.raises(ContractError, match="cls_accuracy"):
        cls_accuracy(build_params(cfg), head, cfg, [])


def test_cls_accuracy_of_a_regression_head_is_a_contract_error():
    """The argmax of a single score column is always 0, so an accuracy
    against int(target) would mean nothing."""
    vocab = toy_vocab()
    cfg = cfg_for(vocab, task_type="regression")
    examples = []
    for t, target in (("the cat sat", 0.0), ("the dog ran", 0.4),
                      ("the sun rose", 7.3)):
        ex = pack_pair(t, None, vocab, cfg)
        ex.label = target
        examples.append(ex)
    head = init_cls_head(cfg, 1, 1, np.random.default_rng(0))
    with pytest.raises(ContractError, match="regression"):
        cls_accuracy(build_params(cfg), head, cfg, examples)


def test_finetuning_on_no_examples_is_a_contract_error():
    cfg = cfg_for(toy_vocab())
    params = build_params(cfg)
    with pytest.raises(ContractError, match="finetune_cls"):
        finetune_cls(params, cfg, [], 2, 1)
    with pytest.raises(ContractError, match="finetune_qa"):
        finetune_qa(params, cfg, [], 1)


def test_qa_metrics_of_no_examples_is_a_contract_error():
    cfg = cfg_for(toy_vocab())
    head = init_qa_head(cfg, np.random.default_rng(0))
    with pytest.raises(ContractError, match="qa_metrics"):
        qa_metrics(build_params(cfg), head, cfg, [])


def test_tsv_reader_classification(tmp_path):
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    path = tmp_path / "train.tsv"
    path.write_text("pos\tthe cat sat\nneg\tthe dog ran\npos\tthe sun rose\n")
    examples, names = read_cls_tsv(str(path), vocab, cfg)
    assert names == ["neg", "pos"]
    assert [ex.label for ex in examples] == [1.0, 0.0, 1.0]


def test_tsv_reader_rejects_mixed_shapes(tmp_path):
    vocab = toy_vocab()
    path = tmp_path / "train.tsv"
    path.write_text("pos\tthe cat\nneg\tthe dog\tthe sun\n")
    with pytest.raises(DataError):
        read_cls_tsv(str(path), vocab, cfg_for(vocab))


@pytest.mark.parametrize("target", ["abc", "nan", "inf", "-inf", "NaN"])
def test_regression_reader_names_the_line_of_a_bad_target(tmp_path, target):
    vocab = toy_vocab()
    path = tmp_path / "train.tsv"
    path.write_text(f"0.5\tthe cat sat\n\n{target}\tthe dog ran\n")
    with pytest.raises(DataError, match=f"{path}:3: bad regression target "
                       f"'{target}'"):
        read_cls_tsv(str(path), vocab, cfg_for(vocab, task_type="regression"))


def test_finetune_readers_name_empty_and_undecodable_files(tmp_path):
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    for reader in (read_cls_tsv, read_qa_jsonl):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n \n", encoding="utf-8")
        with pytest.raises(DataError, match="empty.txt: no examples"):
            reader(str(empty), vocab, cfg)
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"pos\t\xff cat\n")
        with pytest.raises(DataError, match="cannot read .*binary.txt"):
            reader(str(binary), vocab, cfg)


def test_reader_errors_count_blank_lines(tmp_path):
    vocab = toy_vocab()
    path = tmp_path / "train.tsv"
    path.write_text("pos\tthe cat sat\n\nneg\n", encoding="utf-8")
    with pytest.raises(DataError, match="train.tsv:3: expected 2 or 3"):
        read_cls_tsv(str(path), vocab, cfg_for(vocab))


def test_classification_overfits_tiny_task():
    vocab = toy_vocab()
    cfg = cfg_for(vocab, batch_size=8, finetune_lr=5e-3)
    params = build_params(cfg, seed=1)
    texts = ["the cat sat", "the dog ran", "the sun rose", "the bird flew",
             "one cat ran", "two dog sat", "red sun home", "blue bird now"]
    examples = []
    for i, t in enumerate(texts):
        ex = pack_pair(t, None, vocab, cfg)
        ex.label = float(i % 2)
        examples.append(ex)
    head = finetune_cls(params, cfg, examples, 2, steps=120, seed=1)
    assert cls_accuracy(params, head, cfg, examples) == 1.0


def test_finetune_cls_with_dropout_is_deterministic(monkeypatch):
    """Dropout draws come from the seed alone: the row-selected encode
    draws the same masks on every run, and another seed draws others."""
    vocab = toy_vocab()
    cfg = cfg_for(vocab, batch_size=3, dropout=0.1)
    examples = []
    for i, (a, b) in enumerate((("the cat sat. the dog ran.", "red sun"),
                                ("one bird flew home", "the sun rose fast"),
                                ("blue", "two dog sat. the cat ran now."))):
        ex = pack_pair(a, b, vocab, cfg)
        ex.label = float(i % 2)
        examples.append(ex)
    encode, asked = heads.encode_batch, []

    def spy(*args, **kwargs):
        asked.append((kwargs["training"], kwargs["rows"].shape))
        return encode(*args, **kwargs)

    monkeypatch.setattr(heads, "encode_batch", spy)

    def run(seed):
        params = build_params(cfg, seed=4)
        head = finetune_cls(params, cfg, examples, 2, steps=3, seed=seed)
        return ({n: t.data.tobytes() for n, t in head.items()},
                {n: t.data.tobytes() for n, t in params.items()})

    first = run(7)
    assert asked == [(True, (3, 3))] * 3
    assert run(7) == first
    other = run(8)
    assert other[0]["cls.w"] != first[0]["cls.w"]


def test_regression_constant_target_drives_loss_to_zero():
    vocab = toy_vocab()
    cfg = cfg_for(vocab, task_type="regression", batch_size=4,
                  finetune_lr=5e-3)
    params = build_params(cfg, seed=2)
    examples = []
    for t in ("the cat sat", "the dog ran", "the sun rose", "the bird flew"):
        ex = pack_pair(t, None, vocab, cfg)
        ex.label = 2.5
        examples.append(ex)
    head = finetune_cls(params, cfg, examples, 1, steps=150, seed=2)
    h = encode_batch(params, cfg, [ex.packed for ex in examples],
                     rows=feature_rows(examples, cfg))
    _, loss = classify(h, examples, head, cfg)
    assert float(loss.data) < 1e-2


def test_qa_packing_layout_and_golds():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    # context words flatten to: the cat sat home . the dog ran fast .
    ex = pack_qa("The cat sat home. The dog ran fast.", "the cat", 6, 7,
                 vocab, cfg)
    packed = ex.packed
    # question = 2 words: [CLS] q q [SEP] then the marked sentences
    assert packed.token_ids[0] == CLS
    assert packed.token_ids[3] == SEP
    assert packed.segment_ids[:4].sum() == 0
    assert packed.segment_ids[4:packed.attention_len].all()
    assert len(ex.word_positions) == 10
    assert len(ex.marker_positions) == 2
    # golds 6..7 are "dog ran", inside sentence 1
    assert ex.gold_sentence == 1
    words = packed.token_ids[ex.word_positions]
    assert vocab.id_to_token[words[6]] == "dog"
    # specials and question words are not candidates
    specials = {CLS, SEP, SENT}
    assert all(int(packed.token_ids[p]) not in specials
               for p in ex.word_positions)
    assert all(p > 3 for p in ex.word_positions)


def test_qa_gold_outside_context_is_data_error():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    with pytest.raises(DataError):
        pack_qa("the cat sat", "the cat", 1, 3, vocab, cfg)
    with pytest.raises(DataError):
        pack_qa("the cat sat", "the cat", 2, 1, vocab, cfg)


def test_qa_gold_truncated_away_is_data_error():
    vocab = toy_vocab()
    cfg = cfg_for(vocab, seq_len=12)
    long_ctx = "the cat sat on the red mat. the dog ran fast to the sun."
    with pytest.raises(DataError):
        pack_qa(long_ctx, "the cat", 12, 13, vocab, cfg)


def test_qa_loss_is_sum_of_three_cross_entropies():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    params = build_params(cfg, seed=3)
    head = init_qa_head(cfg, np.random.default_rng(3))
    ex = pack_qa("the cat sat. the dog ran fast.", "the cat", 3, 4, vocab, cfg)
    h = encode_batch(params, cfg, [ex.packed])
    loss, (start, end, sent) = qa_forward(h, [ex], head, cfg)

    # only the example's own candidates escape the mask
    for logits, rows in ((start, ex.word_positions), (end, ex.word_positions),
                         (sent, ex.marker_positions)):
        off = np.ones(logits.shape[1], dtype=bool)
        off[rows] = False
        assert (logits[0, off] <= NEG_INF / 2).all()
        assert (logits[0, rows] > NEG_INF / 2).all()
    flat = h.data.reshape(-1, cfg.hidden)
    terms = []
    for vec, rows, gold in (
            (head["qa.start"], ex.word_positions, ex.gold_start),
            (head["qa.end"], ex.word_positions, ex.gold_end),
            (head["qa.sent"], ex.marker_positions, ex.gold_sentence)):
        logits = flat[rows] @ vec.data.reshape(-1)
        shifted = logits - logits.max()
        terms.append(float(np.log(np.exp(shifted).sum()) - shifted[gold]))
    np.testing.assert_allclose(float(loss.data), sum(terms), atol=1e-6)


def per_example_qa_loss(h, examples, head):
    """The per-example formula: the batch mean of each example's three
    1-D log-softmax terms, over its own word and marker rows."""
    bsz, length, hidden = h.shape
    flat = h.reshape(bsz * length, hidden)
    total = None
    for b, ex in enumerate(examples):
        for name, rows, gold in (
                ("qa.start", ex.word_positions, ex.gold_start),
                ("qa.end", ex.word_positions, ex.gold_end),
                ("qa.sent", ex.marker_positions, ex.gold_sentence)):
            logits = T.matmul(T.take(flat, b * length + rows), head[name])
            term = T.cross_entropy(logits.reshape(-1), gold)
            total = term if total is None else total + term
    return T.mul(total, 1.0 / bsz)


def test_batched_qa_loss_and_grads_equal_the_per_example_formula():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    data = [("the cat sat. the dog ran.", "the cat", 1, 1),
            ("the sun rose. the bird flew home now. one red sun.",
             "the sun", 4, 6),
            ("red sun home.", "red sun", 2, 2),
            ("blue bird now. the cat sat fast.", "the cat", 3, 5)]
    examples = [pack_qa(c, q, s, e, vocab, cfg) for c, q, s, e in data]
    assert len({ex.packed.attention_len for ex in examples}) == 4

    def run(loss_of):
        params = build_params(cfg, seed=7, dtype=np.float64)
        head = {name: Tensor(t.data.astype(np.float64), requires_grad=True)
                for name, t in init_qa_head(
                    cfg, np.random.default_rng(7)).items()}
        for p in params.values():
            p.requires_grad = True
        h = encode_batch(params, cfg, [ex.packed for ex in examples])
        loss = loss_of(h, head)
        T.backward(loss)
        grads = {name: p.grad for name, p in {**params, **head}.items()
                 if p.grad is not None}
        return float(loss.data), grads

    loss, grads = run(lambda h, head: qa_forward(h, examples, head, cfg)[0])
    want, want_grads = run(
        lambda h, head: per_example_qa_loss(h, examples, head))
    assert abs(loss - want) <= 1e-10
    assert set(grads) == set(want_grads)
    assert {"qa.start", "qa.end", "qa.sent", "emb.token",
            f"enc.{cfg.encoder_layers - 1}.ffn.w1"} <= set(grads)
    for name, grad in want_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-10,
                                   err_msg=name)


def test_qa_forward_wants_one_example_per_encoder_row():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    ex = pack_qa("the cat sat.", "the cat", 1, 1, vocab, cfg)
    h = encode_batch(build_params(cfg), cfg, [ex.packed, ex.packed])
    head = init_qa_head(cfg, np.random.default_rng(0))
    with pytest.raises(ContractError, match="qa_forward"):
        qa_forward(h, [ex], head, cfg)


def test_qa_single_word_context_forces_prediction():
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    params = build_params(cfg, seed=4)
    head = init_qa_head(cfg, np.random.default_rng(4))
    ex = pack_qa("cat", "the cat", 0, 0, vocab, cfg)
    h = encode_batch(params, cfg, [ex.packed])
    _, (start, end, sent) = qa_forward(h, [ex], head, cfg)
    words = ex.word_positions
    assert best_span(start[0, words], end[0, words], cfg.max_answer_len) \
        == (0, 0)
    assert int(np.argmax(sent[0, ex.marker_positions])) == 0


def test_best_span_respects_order_and_window():
    s = np.array([0.0, 5.0, 0.0])
    e = np.array([9.0, 0.0, 0.0])
    # the unconstrained best (start 1, end 0) is illegal; (0,0) wins
    assert best_span(s, e, 10) == (0, 0)
    s = np.array([1.0, 4.0, 0.0])
    e = np.array([0.0, 0.0, 3.0])
    assert best_span(s, e, 10) == (1, 2)
    assert best_span(s, e, 1) == (1, 1)


def test_qa_overfits_find_the_word_task():
    vocab = toy_vocab()
    cfg = cfg_for(vocab, batch_size=4, finetune_lr=5e-3)
    params = build_params(cfg, seed=5)
    data = [
        ("the cat sat. the dog ran.", "the cat", 1, 1),
        ("the sun rose. the bird flew.", "the sun", 1, 1),
        ("one cat ran. two dog sat.", "one cat", 4, 4),
        ("red sun home. blue bird now.", "red sun", 4, 4),
    ]
    examples = [pack_qa(c, q, s, e, vocab, cfg) for c, q, s, e in data]
    head = finetune_qa(params, cfg, examples, steps=150, seed=5)
    scores = qa_metrics(params, head, cfg, examples)
    assert scores["em"] > 0.95


def test_qa_jsonl_reader(tmp_path):
    vocab = toy_vocab()
    cfg = cfg_for(vocab)
    path = tmp_path / "qa.jsonl"
    path.write_text(
        '{"context": "the cat sat.", "question": "the cat", '
        '"answer_start_token": 1, "answer_end_token": 2}\n'
        '\n'
        '{"context": "the dog ran.", "question": "the dog", '
        '"answer_start_token": 0, "answer_end_token": 0}\n')
    examples = read_qa_jsonl(str(path), vocab, cfg)
    assert len(examples) == 2
    assert examples[0].gold_end == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"context": "x"}\n')
    with pytest.raises(DataError):
        read_qa_jsonl(str(bad), vocab, cfg)


@pytest.mark.parametrize("fields,message", [
    ('"context": 5, "question": "the cat"', "context and question"),
    ('"context": "the cat sat.", "question": ["the"]', "context and question"),
    ('"context": "the cat sat.", "question": null', "context and question"),
], ids=["int-context", "list-question", "null-question"])
def test_qa_reader_rejects_text_that_is_no_string(tmp_path, fields, message):
    vocab = toy_vocab()
    path = tmp_path / "qa.jsonl"
    path.write_text('{"context": "the dog ran.", "question": "the dog", '
                    '"answer_start_token": 0, "answer_end_token": 0}\n'
                    f'{{{fields}, "answer_start_token": 0, '
                    '"answer_end_token": 0}\n')
    with pytest.raises(DataError, match=f"{path}:2: malformed QA record: "
                       f"{message}"):
        read_qa_jsonl(str(path), vocab, cfg_for(vocab))


@pytest.mark.parametrize("start,end", [
    ("true", "1"), ("0", "2.7"), ('"1"', "1"), ("0", "false")])
def test_qa_reader_rejects_answer_indices_that_are_no_integers(tmp_path,
                                                               start, end):
    vocab = toy_vocab()
    path = tmp_path / "qa.jsonl"
    path.write_text('{"context": "the cat sat.", "question": "the cat", '
                    f'"answer_start_token": {start}, '
                    f'"answer_end_token": {end}}}\n')
    with pytest.raises(DataError, match=f"{path}:1: malformed QA record: "
                       "answer token indices must be integers"):
        read_qa_jsonl(str(path), vocab, cfg_for(vocab))


def qa_record(context, question, start, end):
    return json.dumps({"context": context, "question": question,
                       "answer_start_token": start, "answer_end_token": end})


@pytest.mark.parametrize("record,seq_len,message", [
    (qa_record("the cat sat", "the cat", 1, 3), 32,
     "gold span [1,3] outside context of 3 words"),
    (qa_record("the cat sat", " ", 0, 0), 32,
     "QA example needs a non-empty question and context"),
    (qa_record("the cat sat on the red mat. the dog ran fast to the sun.",
               "the cat", 12, 13), 12,
     "gold span truncated away while packing"),
], ids=["outside", "empty-question", "truncated"])
def test_qa_reader_names_the_line_of_a_record_that_does_not_pack(
        tmp_path, record, seq_len, message):
    vocab = toy_vocab()
    path = tmp_path / "qa.jsonl"
    path.write_text(qa_record("the dog ran.", "the dog", 0, 0) + "\n"
                    + record + "\n")
    with pytest.raises(DataError) as exc:
        read_qa_jsonl(str(path), vocab, cfg_for(vocab, seq_len=seq_len))
    assert str(exc.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("line,seq_len,message", [
    ("x\t \tb", 32, "classification text has no words"),
    ("x\tcat dog cat dog cat dog cat dog\tdog cat", 8,
     "no room to pack every text in the pair"),
], ids=["blank-text", "no-room"])
def test_tsv_reader_names_the_line_of_a_row_that_does_not_pack(
        tmp_path, line, seq_len, message):
    vocab = toy_vocab()
    path = tmp_path / "train.tsv"
    path.write_text(f"y\tthe cat\tthe dog\n{line}\n")
    with pytest.raises(DataError) as exc:
        read_cls_tsv(str(path), vocab, cfg_for(vocab, seq_len=seq_len))
    assert str(exc.value) == f"{path}:2: {message}"


def test_batched_qa_metrics_match_per_example_scoring(monkeypatch):
    """qa_metrics encodes and scores batch_size examples per pass under
    no_grad; its spans are ``best_span`` of each example's own word
    logits, here taken from a full-length encode of that example alone
    by a plain numpy product, and its scores follow from them."""
    vocab = toy_vocab()
    cfg = cfg_for(vocab, batch_size=3, finetune_lr=5e-3)
    params = build_params(cfg, seed=6)
    data = [
        ("the cat sat. the dog ran.", "the cat", 1, 1),
        ("the sun rose. the bird flew home now.", "the sun", 4, 5),
        ("one cat ran. two dog sat. red sun.", "one cat", 4, 4),
        ("red sun home.", "red sun", 2, 2),
        ("blue bird now. the cat sat fast. one dog ran.", "the cat", 5, 6),
    ]
    examples = [pack_qa(c, q, s, e, vocab, cfg) for c, q, s, e in data]
    head = finetune_qa(params, cfg, examples, steps=20, seed=6)
    vec = {name: head[name].data.reshape(-1) for name in head}
    spans, em, consistent = [], 0, 0
    for ex in examples:
        flat = encode_full_length(params, cfg, [ex.packed]).data[0]
        words = flat[ex.word_positions]
        ps, pe = best_span(words @ vec["qa.start"], words @ vec["qa.end"],
                           cfg.max_answer_len)
        psent = int(np.argmax(flat[ex.marker_positions] @ vec["qa.sent"]))
        spans.append((ps, pe))
        em += int((ps, pe) == (ex.gold_start, ex.gold_end))
        sent_ids = ex.packed.sentence_ids[ex.word_positions[[ps, pe]]]
        consistent += int(sent_ids[0] == psent == sent_ids[1])

    scored = []

    def recording(*args):
        scored.append(best_span(*args))
        return scored[-1]

    monkeypatch.setattr(heads, "best_span", recording)
    scores = qa_metrics(params, head, cfg, examples)
    assert scored == spans
    assert scores == {"n": 5, "em": em / 5,
                      "sentence_consistency": consistent / 5}


def test_finetuning_trains_callers_encoder_and_returns_only_the_head():
    """cli scores ``ck.params`` with the returned head, so both loops must
    update the caller's encoder Tensors in place and return just the head."""
    vocab = toy_vocab()
    cfg = cfg_for(vocab, batch_size=2)
    cls_examples = []
    for i, t in enumerate(("the cat sat", "the dog ran")):
        ex = pack_pair(t, None, vocab, cfg)
        ex.label = float(i)
        cls_examples.append(ex)
    qa_examples = [pack_qa("the cat sat. the dog ran.", "the cat", 1, 1,
                           vocab, cfg)]
    runs = [
        (lambda p: finetune_cls(p, cfg, cls_examples, 2, steps=1),
         {"cls.w", "cls.b"}),
        (lambda p: finetune_qa(p, cfg, qa_examples, steps=1),
         {"qa.start", "qa.end", "qa.sent"}),
    ]
    for finetune, head_keys in runs:
        params = build_params(cfg, seed=3)
        token = params["emb.token"]
        before = token.data.copy()
        names = set(params)
        head = finetune(params)
        assert set(head) == head_keys
        assert set(params) == names
        assert params["emb.token"] is token
        assert not np.array_equal(token.data, before)
