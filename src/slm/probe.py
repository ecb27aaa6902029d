"""Sentence-representation export and cosine nearest-neighbor search.

Exports the encoder output at every [SENT] position of an unshuffled,
unmasked corpus into a flat matrix with one JSON record per row (doc
id, sentence index, sentence text, previous sentence text). Retrieval
is an exact brute-force cosine scan done in double precision, self
excluded, ties broken by record order. An index's fields cannot be
rebound. It builds its float64 unit rows once, on its first query, and
its matrix is read-only from then on, so an in-place write raises
instead of serving stale neighbours; an index that is only exported or
loaded builds none. Each query is one matrix-vector product against
the unit rows and a partial selection of the top k, which returns what
a full stable sort would.

Index file layout: two little-endian u64 (n, hidden) followed by the
raw row-major float32 matrix; records live next to it in a .jsonl
sidecar. Both are written atomically, the sidecar first, so the index
file exists only once an export has finished. Loading checks the
header's size against the bytes in the file before reading the matrix,
and rejects a row holding NaN or Inf; either is a FormatError naming
the file (and the row).
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .encoder import encode_batch, pad_rows
from .errors import ContractError, DataError, FormatError, write_atomic
from .tensor import no_grad
from .textpipe import Document, Vocab, merge_to_max, pack_example, tokenize


@dataclass(frozen=True)
class EmbeddingIndex:
    matrix: np.ndarray          # [n, hidden] float32
    records: list[dict]

    def __post_init__(self):
        if len(self.records) != self.matrix.shape[0]:
            raise ContractError("index records out of step with matrix rows")

    @cached_property
    def unit(self) -> np.ndarray:
        """float64 rows scaled to unit norm (a zero row stays zero),
        built on the first query; the matrix is read-only after it."""
        m = self.matrix.astype(np.float64)
        norms = np.maximum(np.linalg.norm(m, axis=1), 1e-300)
        unit = m / norms[:, None]
        unit.flags.writeable = False
        self.matrix.flags.writeable = False
        return unit


def export_reps(params: dict, cfg: RunConfig,
                docs: list[list[str]], vocab: Vocab) -> EmbeddingIndex:
    """One row per packed sentence of every document, in corpus order.

    Every document is packed first (one rng stream, corpus order), then
    the packed inputs are encoded ``cfg.batch_size`` at a time, the
    encoder's last layer only at the [SENT] rows.
    """
    if not cfg.sentence_reps_enabled:
        raise ContractError("export needs sentence representations enabled")
    rng = np.random.default_rng([cfg.seed, 5])
    packed = []                 # (doc id, example, text per sentence)
    for doc_id, sent_texts in enumerate(docs):
        token_sents = [vocab.encode(tokenize(t)) for t in sent_texts]
        keep = [(tok, txt) for tok, txt in zip(token_sents, sent_texts)
                if tok]
        if not keep:
            continue
        # merge sentence indices, so tokens and texts merge alike
        groups = merge_to_max(Document([[i] for i in range(len(keep))]),
                              cfg.max_sentences, rng).sentences
        texts = [" ".join(keep[i][1] for i in g) for g in groups]
        merged = Document([[w for i in g for w in keep[i][0]]
                           for g in groups])
        ex = pack_example(merged, cfg.seq_len, cfg.max_sentences, rng)
        if ex is not None:
            packed.append((doc_id, ex, texts))
    rows = []
    records = []
    with no_grad():
        for lo in range(0, len(packed), cfg.batch_size):
            chunk = packed[lo:lo + cfg.batch_size]
            markers = pad_rows([[sent_pos for sent_pos, _, _ in
                                 ex.sentence_spans] for _, ex, _ in chunk])
            h = encode_batch(params, cfg, [ex for _, ex, _ in chunk],
                             rows=markers).data
            for b, (doc_id, ex, texts) in enumerate(chunk):
                for k in range(len(ex.sentence_spans)):
                    rows.append(h[b, k].astype(np.float32))
                    records.append({
                        "doc": doc_id,
                        "sent": k,
                        "text": texts[k],
                        "prev": texts[k - 1] if k > 0 else "",
                    })
    if not rows:
        raise DataError("corpus produced no sentence representations")
    return EmbeddingIndex(matrix=np.stack(rows), records=records)


def save_index(path: str, index: EmbeddingIndex) -> None:
    """Write the sidecar, then the matrix, each atomically: the index
    file exists only once both are whole. A row holding NaN or Inf,
    which ``load_index`` would refuse, is refused before either file
    is written."""
    matrix = np.ascontiguousarray(index.matrix, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ContractError(f"{path}: row {bad[0]} holds non-finite values;"
                            " the index is not written")
    records = "".join(json.dumps(rec, ensure_ascii=False) + "\n"
                      for rec in index.records).encode("utf-8")
    write_atomic(path + ".jsonl", lambda fh: fh.write(records))
    write_atomic(path, lambda fh: fh.writelines(
        [struct.pack("<QQ", *matrix.shape), matrix.tobytes()]))


def load_index(path: str) -> EmbeddingIndex:
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16:
                raise FormatError(f"{path}: truncated index header")
            n, hidden = struct.unpack("<QQ", head)
            # Python ints: compare before reading, so a corrupt header
            # never asks for more than the file holds
            size = 4 * n * hidden
            left = os.fstat(fh.fileno()).st_size - 16
            raw = fh.read(size) if size <= left else b""
        if len(raw) != size:
            raise FormatError(f"{path}: truncated index payload: {n} rows of "
                              f"{hidden} need {size} bytes, the file has "
                              f"{left}")
        with open(path + ".jsonl", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read index {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}.jsonl: not UTF-8 text: {exc}") from exc
    records = []
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}.jsonl:{ln}: malformed record: {exc}") from exc
        if not (isinstance(rec, dict)
                and {"doc", "sent", "text", "prev"} <= rec.keys()):
            raise FormatError(f"{path}.jsonl:{ln}: record lacks doc, sent, "
                              "text or prev")
        records.append(rec)
    if len(records) != n:
        raise FormatError(f"{path}.jsonl: {len(records)} records for the "
                          f"{n} rows of {path}")
    try:
        matrix = np.frombuffer(raw, dtype="<f4").reshape(n, hidden)
    except ValueError as exc:   # an empty matrix with a huge dim
        raise FormatError(
            f"{path}: index shape ({n}, {hidden}): {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: row {bad[0]} holds non-finite values")
    return EmbeddingIndex(matrix=matrix.astype(np.float32), records=records)


def nearest_neighbors(index: EmbeddingIndex, query_row: int,
                      k: int) -> list[tuple[int, float]]:
    """Top-k rows by cosine similarity to the query row, best first.

    The index's unit rows are built on its first query and reused by
    every later one; its matrix is read-only from then on. The top k is
    a partial selection: only the rows not strictly worse than the k-th
    are sorted, so equal similarities still rank in record order and NaN
    still ranks last, exactly as in a full stable sort of every row.
    """
    n = index.matrix.shape[0]
    if not 0 <= query_row < n:
        raise ContractError(f"query row {query_row} outside [0, {n})")
    if k < 1:
        raise ContractError(f"k={k} must be at least 1")
    if k >= n:
        raise ContractError(f"k={k} must leave room to exclude self (n={n})")
    unit = index.unit
    sims = unit @ unit[query_row]
    sims[query_row] = -np.inf
    neg = -sims
    kth = np.partition(neg, k - 1)[k - 1]
    # rows not strictly worse than the k-th: its ties and any NaN stay
    keep = np.flatnonzero(~(neg > kth))
    order = keep[np.argsort(neg[keep], kind="stable")[:k]]
    return [(int(i), float(sims[i])) for i in order]


def neighbor_report(index: EmbeddingIndex, query_row: int,
                    neighbors: list[tuple[int, float]]) -> str:
    """Ranked plain-text listing, each hit shown with its previous
    sentence for context."""
    q = index.records[query_row]
    lines = [f"query [doc {q['doc']} sent {q['sent']}]: {q['text']}"]
    if q["prev"]:
        lines.append(f"  (previous: {q['prev']})")
    for rank, (row, sim) in enumerate(neighbors, 1):
        r = index.records[row]
        lines.append(f"{rank}. sim={sim:.4f} [doc {r['doc']} sent {r['sent']}]"
                     f" {r['text']}")
        if r["prev"]:
            lines.append(f"   previous: {r['prev']}")
    return "\n".join(lines)
