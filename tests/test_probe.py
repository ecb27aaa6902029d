import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from slm.encoder import encode_batch
from slm.errors import ContractError, DataError, FormatError
from slm.probe import (EmbeddingIndex, export_reps, load_index,
                       nearest_neighbors, neighbor_report, save_index)
from slm.textpipe import SPECIAL_TOKENS, Vocab

from util import build_params, encode_full_length, small_config


def probe_vocab():
    words = ["the", "cat", "sat", "dog", "ran", "sun", "rose", "bird",
             "flew", "home", "fast", "now"]
    return Vocab(SPECIAL_TOKENS + words)


def probe_setup(seed=0):
    vocab = probe_vocab()
    cfg = small_config(vocab_size=len(vocab.id_to_token), seq_len=32,
                       max_sentences=6)
    params = build_params(cfg, seed=seed)
    docs = [
        ["The cat sat home.", "The dog ran fast.", "The bird flew now."],
        ["The sun rose.", "The cat ran home."],
    ]
    return params, cfg, docs, vocab


def index_of(matrix):
    records = [{"doc": 0, "sent": i, "text": f"s{i}", "prev": ""}
               for i in range(matrix.shape[0])]
    return EmbeddingIndex(matrix=matrix, records=records)


def random_index(n, hidden=8, seed=0):
    rng = np.random.default_rng(seed)
    return index_of(rng.normal(size=(n, hidden)).astype(np.float32))


def test_one_row_per_sentence():
    params, cfg, docs, vocab = probe_setup()
    index = export_reps(params, cfg, docs, vocab)
    assert index.matrix.shape == (5, cfg.hidden)
    assert [r["doc"] for r in index.records] == [0, 0, 0, 1, 1]
    assert [r["sent"] for r in index.records] == [0, 1, 2, 0, 1]
    assert index.records[1]["prev"] == "The cat sat home."
    assert index.records[3]["prev"] == ""


def test_reexport_is_bitwise_identical():
    params, cfg, docs, vocab = probe_setup()
    a = export_reps(params, cfg, docs, vocab)
    b = export_reps(params, cfg, docs, vocab)
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.records == b.records


def test_rows_match_encoder_sentence_outputs():
    from slm.textpipe import Document, pack_example, tokenize
    params, cfg, docs, vocab = probe_setup()
    index = export_reps(params, cfg, docs, vocab)
    doc = Document([vocab.encode(tokenize(t)) for t in docs[0]])
    ex = pack_example(doc, cfg.seq_len, cfg.max_sentences,
                      np.random.default_rng(0))
    h = encode_batch(params, cfg, [ex])
    for k, (sent_pos, _, _) in enumerate(ex.sentence_spans):
        np.testing.assert_allclose(index.matrix[k], h.data[0, sent_pos],
                                   atol=1e-6)


def test_duplicate_sentence_ranks_first_with_unit_similarity():
    index = random_index(6)
    index.matrix[4] = index.matrix[1] * 2.0  # same direction
    hits = nearest_neighbors(index, 1, 3)
    assert hits[0][0] == 4
    assert hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_orthogonal_rows_have_zero_similarity():
    matrix = np.eye(3, dtype=np.float32)
    records = [{"doc": 0, "sent": i, "text": str(i), "prev": ""}
               for i in range(3)]
    hits = nearest_neighbors(EmbeddingIndex(matrix, records), 0, 2)
    assert all(sim == pytest.approx(0.0, abs=1e-7) for _, sim in hits)


def test_matches_double_precision_oracle():
    index = random_index(40, hidden=16, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = int(rng.integers(0, 40))
        k = int(rng.integers(1, 10))
        hits = nearest_neighbors(index, q, k)
        m = index.matrix.astype(np.float64)
        sims = np.array([
            np.dot(m[i], m[q]) / (np.linalg.norm(m[i]) * np.linalg.norm(m[q]))
            if i != q else -np.inf
            for i in range(40)])
        expect = np.argsort(-sims, kind="stable")[:k]
        assert [h[0] for h in hits] == expect.tolist()
        for row, sim in hits:
            assert sim == pytest.approx(sims[row], abs=1e-9)


def test_similarity_symmetric_and_scale_invariant():
    index = random_index(10, seed=5)
    m = index.matrix.astype(np.float64)
    unit = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.testing.assert_allclose(sims, sims.T, atol=1e-7)

    scaled = EmbeddingIndex(matrix=index.matrix * 3.7, records=index.records)
    for q in range(10):
        a = nearest_neighbors(index, q, 4)
        b = nearest_neighbors(scaled, q, 4)
        assert [x[0] for x in a] == [x[0] for x in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb, abs=1e-6)


def test_ties_break_by_record_order():
    matrix = np.array([[1, 0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
                      dtype=np.float32)
    records = [{"doc": 0, "sent": i, "text": str(i), "prev": ""}
               for i in range(4)]
    hits = nearest_neighbors(EmbeddingIndex(matrix, records), 0, 3)
    assert [h[0] for h in hits] == [1, 2, 3]


def test_k_must_leave_room_for_self():
    index = random_index(5)
    with pytest.raises(ContractError):
        nearest_neighbors(index, 0, 5)
    with pytest.raises(ContractError):
        nearest_neighbors(index, 9, 2)


@pytest.mark.parametrize("k", [0, -1, -2])
def test_k_below_one_is_a_contract_error(k):
    with pytest.raises(ContractError, match=f"k={k} must be at least 1"):
        nearest_neighbors(random_index(5), 0, k)


def full_scan_neighbors(matrix, query_row, k):
    """The formula the cached search replaced: normalize every row on
    every call, then stable-sort all n similarities."""
    m = matrix.astype(np.float64)
    norms = np.maximum(np.linalg.norm(m, axis=1), 1e-300)
    unit = m / norms[:, None]
    sims = unit @ unit[query_row]
    sims[query_row] = -np.inf
    order = np.argsort(-sims, kind="stable")[:k]
    return [(int(i), float(sims[i])) for i in order]


def planted_ties_matrix(seed):
    """Random rows plus duplicates, scaled copies, a zero row and rows
    orthogonal to each other, shuffled, so many queries meet ties."""
    rng = np.random.default_rng(seed)
    hidden = 6
    base = rng.normal(size=(6, hidden)).astype(np.float32)
    base[:, :2] = 0                      # orthogonal to the rows below
    eye = np.eye(hidden, dtype=np.float32)[:2]
    rows = [*base, base[0], base[0] * 2.0, base[1] * 3.7, base[2] * 0.25,
            base[2], np.zeros(hidden, dtype=np.float32), eye[0], eye[1],
            eye[0] * 5.0]
    matrix = np.stack(rows)
    return matrix[rng.permutation(len(rows))]


@pytest.mark.parametrize("seed,nan_row", [(0, None), (1, None), (2, None),
                                          (3, None), (7, 4)])
def test_partial_selection_matches_the_full_scan_bitwise(seed, nan_row):
    matrix = planted_ties_matrix(seed)
    if nan_row is not None:     # in memory only: load_index refuses it
        matrix[nan_row, 3] = np.nan
    index = index_of(matrix.copy())
    n = matrix.shape[0]
    for q in range(n):
        for k in range(1, n):
            hits = nearest_neighbors(index, q, k)
            expect = full_scan_neighbors(matrix, q, k)
            assert [i for i, _ in hits] == [i for i, _ in expect]
            # bits, not ==, so a NaN similarity compares too
            assert (np.array([s for _, s in hits]).tobytes()
                    == np.array([s for _, s in expect]).tobytes())


def test_unit_rows_are_built_once_on_the_first_query(tmp_path):
    index = random_index(6)
    assert "unit" not in index.__dict__
    index.matrix[4] = index.matrix[1] * 2.0  # seen by the first query
    assert nearest_neighbors(index, 1, 2)[0][0] == 4
    unit = index.__dict__["unit"]
    nearest_neighbors(index, 3, 2)
    assert index.__dict__["unit"] is unit
    with pytest.raises(ValueError):
        index.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        index.unit[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        index.matrix = index.matrix.copy()

    params, cfg, docs, vocab = probe_setup()
    exported = export_reps(params, cfg, docs, vocab)
    path = str(tmp_path / "sent.idx")
    save_index(path, exported)
    for built in (exported, load_index(path)):
        assert "unit" not in built.__dict__
        assert built.matrix.flags.writeable


def test_index_save_load_round_trip(tmp_path):
    index = random_index(7, hidden=4, seed=6)
    path = str(tmp_path / "sent.idx")
    save_index(path, index)
    back = load_index(path)
    assert back.matrix.tobytes() == index.matrix.tobytes()
    assert back.records == index.records


def test_truncated_index_is_format_error(tmp_path):
    index = random_index(7, hidden=4, seed=7)
    path = str(tmp_path / "sent.idx")
    save_index(path, index)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(FormatError):
        load_index(path)


def test_non_finite_index_row_is_format_error(tmp_path):
    index = random_index(7, hidden=4, seed=7)
    path = str(tmp_path / "sent.idx")
    save_index(path, index)
    blob = bytearray(open(path, "rb").read())
    at = 16 + 4 * (5 * 4 + 2)   # header, then row 5, column 2
    blob[at:at + 4] = np.float32(np.nan).tobytes()
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match=f"{path}: row 5 holds non-finite"):
        load_index(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_refuses_a_non_finite_row_and_writes_nothing(tmp_path, value):
    """A row that load_index would refuse is refused on save, before the
    sidecar or the matrix is written."""
    index = random_index(7, hidden=4, seed=7)
    index.matrix[5, 2] = value
    path = tmp_path / "sent.idx"
    with pytest.raises(ContractError, match=f"{path}: row 5 holds non-finite"):
        save_index(str(path), index)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n,hidden", [(2**40, 16), (2**62, 2**62), (0, 2**63)])
def test_index_header_beyond_the_file_is_format_error(tmp_path, n, hidden):
    path = tmp_path / "sent.idx"
    path.write_bytes(struct.pack("<QQ", n, hidden) + bytes(64))
    (tmp_path / "sent.idx.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match=f"{path}: "):
        load_index(str(path))


def test_records_and_matrix_must_agree():
    with pytest.raises(ContractError):
        EmbeddingIndex(matrix=np.zeros((3, 4), dtype=np.float32), records=[])


def test_report_mentions_query_and_previous_sentences():
    params, cfg, docs, vocab = probe_setup()
    index = export_reps(params, cfg, docs, vocab)
    hits = nearest_neighbors(index, 1, 2)
    text = neighbor_report(index, 1, hits)
    assert "The dog ran fast." in text
    assert "previous" in text
    assert text.count("sim=") == 2


def test_empty_corpus_is_data_error():
    params, cfg, _, vocab = probe_setup()
    with pytest.raises(DataError):
        export_reps(params, cfg, [[""]], vocab)


def test_merged_sentences_keep_their_texts_and_rows():
    from slm.textpipe import Document, pack_example, tokenize
    vocab = probe_vocab()
    cfg = small_config(vocab_size=len(vocab.id_to_token), seq_len=64,
                       max_sentences=3)
    params = build_params(cfg, seed=1)
    docs = [["The cat sat.", "The dog ran.", "The sun rose.", "The bird flew.",
             "The cat ran home.", "The dog sat now."],
            ["The sun rose fast.", "The bird sat.", "The dog flew home.",
             "The cat ran."]]
    index = export_reps(params, cfg, docs, vocab)
    for doc_id, sents in enumerate(docs):
        rows = [n for n, r in enumerate(index.records) if r["doc"] == doc_id]
        texts = [index.records[n]["text"] for n in rows]
        assert len(texts) == cfg.max_sentences
        # each text joins a run of adjacent source sentences, and the
        # runs tile the document in order
        rest = list(sents)
        for text in texts:
            runs = [k for k in range(1, len(rest) + 1)
                    if " ".join(rest[:k]) == text]
            assert runs, text
            rest = rest[runs[0]:]
        assert not rest
        assert [index.records[n]["prev"] for n in rows] == [""] + texts[:-1]
        # each row is the encoder output at its merged sentence's [SENT]
        doc = Document([vocab.encode(tokenize(t)) for t in texts])
        ex = pack_example(doc, cfg.seq_len, cfg.max_sentences,
                          np.random.default_rng(0))
        h = encode_batch(params, cfg, [ex])
        for n, (sent_pos, _, _) in zip(rows, ex.sentence_spans, strict=True):
            np.testing.assert_allclose(index.matrix[n], h.data[0, sent_pos],
                                       atol=1e-6)


def test_batched_export_matches_per_document_full_length_encoding():
    """Chunked, trimmed export against one full-length encode per doc."""
    from dataclasses import replace

    from slm.textpipe import Document, pack_example, tokenize
    params, cfg, docs, vocab = probe_setup()
    docs = docs + [["The dog sat."], [""],
                   ["The sun rose home now.", "The cat ran.",
                    "The bird sat fast.", "The dog flew."],
                   ["The bird ran home."]]
    batched = export_reps(params, replace(cfg, batch_size=2), docs, vocab)
    single = export_reps(params, replace(cfg, batch_size=1), docs, vocab)
    assert batched.records == single.records

    rows, records = [], []
    for doc_id, sents in enumerate(docs):
        tokens = [vocab.encode(tokenize(t)) for t in sents]
        if not any(tokens):
            continue
        ex = pack_example(Document(tokens), cfg.seq_len, cfg.max_sentences,
                          np.random.default_rng(0))
        h = encode_full_length(params, cfg, [ex])
        for k, (sent_pos, _, _) in enumerate(ex.sentence_spans):
            rows.append(h.data[0, sent_pos])
            records.append({"doc": doc_id, "sent": k, "text": sents[k],
                            "prev": sents[k - 1] if k else ""})
    assert batched.records == records
    np.testing.assert_allclose(batched.matrix, np.stack(rows), atol=1e-5)


@pytest.mark.parametrize("bad,message", [
    ('{"doc": 0, "sent": 2, "text": "s2"', "malformed record"),
    ("not json", "malformed record"),
    ('{"doc": 0, "sent": 2, "text": "s2"}', "record lacks doc, sent, text or prev"),
    ('["doc", "sent", "text", "prev"]', "record lacks doc, sent, text or prev"),
], ids=["truncated", "not-json", "missing-key", "not-an-object"])
def test_bad_sidecar_record_is_format_error_naming_line(tmp_path, bad,
                                                        message):
    path = str(tmp_path / "sent.idx")
    save_index(path, random_index(5, hidden=4, seed=8))
    with open(path + ".jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[2] = bad
    with open(path + ".jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"sent.idx.jsonl:3: {message}"):
        load_index(path)


def test_sidecar_that_is_not_utf8_is_format_error(tmp_path):
    path = str(tmp_path / "sent.idx")
    save_index(path, random_index(3, hidden=4, seed=9))
    with open(path + ".jsonl", "ab") as fh:
        fh.write(b'{"text": "\xff"}\n')
    with pytest.raises(FormatError, match="sent.idx.jsonl: not UTF-8"):
        load_index(path)
