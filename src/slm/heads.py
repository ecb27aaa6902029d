"""Fine-tuning heads: sentence-pair classification/regression and
extractive QA with three pointer scores.

Classification builds its feature by concatenating the encoder output
at the feature rows a ``ClsExample`` carries: [CLS], then the first
[SENT] of each provided text, or [CLS] alone with sentence
representations disabled. ``pack_pair`` alone decides those ``rows``,
and the projection width is ``len(rows) * hidden``. QA scores
every context word twice (answer start, answer end) and every context
sentence once, each with its own learned vector. It scores a whole
batch in one pass: each vector multiplies every encoder row of the
batch at once, and a constant additive mask puts ``NEG_INF`` on every
row that is not a candidate of that example (its context words, or its
[SENT] markers for the sentence pointer). The task loss is the sum of
the three pointers' batch-mean cross-entropies. Training runs no span
search; ``qa_metrics`` runs ``best_span`` on each example's word logits.

Inputs are laid out by ``textpipe.pack_segments``: pairs as one segment
per text, QA as the question followed by the context. The ``textpipe``
module docstring shows both layouts.

Data formats: classification reads TSV lines `label<TAB>text_a` with an
optional third column for pair tasks; QA reads JSON lines with keys
context, question (strings), answer_start_token, answer_end_token
(integer token indices into the tokenized context, end inclusive).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import encode_batch
from .errors import ContractError, DataError, read_text
from .model import INIT_STD, NEG_INF, trunc_normal
from .optim import AdamState, adam_update, clip_global_norm, zero_grads
from .tensor import Tensor, backward, no_grad
from .textpipe import (PackedExample, Vocab, document_from_text,
                       pack_segments, tokenize)

MAX_ANSWER_LEN = 30     # BERT's longest predicted answer span, in words


@dataclass
class ClsExample:
    packed: PackedExample
    rows: list[int]             # [CLS], then the first [SENT] per text
    label: float                # class index or regression target


@dataclass
class QaExample:
    packed: PackedExample
    word_positions: np.ndarray  # packed positions of context words
    marker_positions: np.ndarray
    gold_start: int             # indices into word_positions
    gold_end: int
    gold_sentence: int


def pack_pair(text_a: str, text_b: str | None, vocab: Vocab,
              cfg: RunConfig) -> ClsExample:
    """[CLS] a-sentences [SEP] (b-sentences [SEP]) with BERT segments."""
    texts = [t for t in (text_a, text_b) if t is not None]
    sent_groups = [document_from_text(t, vocab).sentences for t in texts]
    if any(not g for g in sent_groups):
        raise DataError("classification text has no words")
    packed = pack_segments(sent_groups, cfg.seq_len, cfg.max_sentences,
                           cfg.sentence_reps_enabled)
    # the first [SENT] of each segment stands for its text; a text that
    # kept no word is an error with or without markers
    first = {}
    for sent_pos, start, _ in packed.sentence_spans:
        first.setdefault(int(packed.segment_ids[start]), sent_pos)
    if len(first) != len(texts):
        raise DataError("no room to pack every text in the pair")
    rows = [0] + (list(first.values()) if cfg.sentence_reps_enabled else [])
    return ClsExample(packed=packed, rows=rows, label=0.0)


def _nonblank_lines(path: str) -> list[tuple[int, str]]:
    """(line number, line) for each non-blank line of a fine-tuning file,
    which must have at least one."""
    lines = [(ln, line) for ln, line
             in enumerate(read_text(path, "training file").split("\n"), 1)
             if line.strip()]
    if not lines:
        raise DataError(f"{path}: no examples")
    return lines


def read_cls_tsv(path: str, vocab: Vocab, cfg: RunConfig):
    """Returns (examples, label_names). Regression keeps label_names=None."""
    rows = []
    for ln, line in _nonblank_lines(path):
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise DataError(f"{path}:{ln}: expected 2 or 3 tab-separated columns")
        rows.append((ln, cols))
    n_texts = {len(c) - 1 for _, c in rows}
    if len(n_texts) != 1:
        raise DataError(f"{path}: mixed single-text and pair rows")

    if cfg.task_type == "regression":
        label_names, parse = None, float
    else:
        label_names = sorted({c[0] for _, c in rows})
        parse = {name: float(i) for i, name in enumerate(label_names)}.get
    examples = []
    for ln, cols in rows:
        try:
            ex = pack_pair(cols[1], cols[2] if len(cols) == 3 else None,
                           vocab, cfg)
        except DataError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from exc
        try:
            ex.label = parse(cols[0])
        except ValueError:
            ex.label = math.nan
        if not math.isfinite(ex.label):  # class indices always are
            raise DataError(f"{path}:{ln}: bad regression target {cols[0]!r}")
        examples.append(ex)
    return examples, label_names


def init_cls_head(cfg: RunConfig, n_outputs: int, n_rows: int,
                  rng) -> dict:
    """A fresh head on ``n_rows`` feature rows of ``cfg.hidden`` each."""
    return {
        "cls.w": Tensor(trunc_normal((n_rows * cfg.hidden, n_outputs),
                                     INIT_STD, rng), requires_grad=True),
        "cls.b": Tensor(np.zeros(n_outputs, dtype=np.float32), requires_grad=True),
    }


def feature_rows(examples: list[ClsExample]) -> np.ndarray:
    """[B, R] positions of each example's feature rows."""
    if len({len(ex.rows) for ex in examples}) != 1:
        raise ContractError("batch mixes examples with different numbers "
                            "of feature rows")
    return np.asarray([ex.rows for ex in examples])


def classify(h: Tensor, examples: list[ClsExample], head: dict,
             cfg: RunConfig) -> tuple[Tensor, Tensor]:
    """Returns (outputs, loss). ``h`` [B, R, hidden] is the encoder
    output at ``feature_rows(examples)``, as ``finetune_cls`` and
    ``cls_accuracy`` ask ``encode_batch`` for it. Outputs are logits
    [B, n_classes] for classification or scores [B, 1] for regression
    (squared error)."""
    bsz, per, hidden = h.shape
    want = feature_rows(examples).shape
    if want != (bsz, per):
        raise ContractError(f"encoder rows {(bsz, per)} do not match the "
                            f"examples' feature rows {want}")
    out = T.linear(h.reshape(bsz, per * hidden), head["cls.w"], head["cls.b"])
    if cfg.task_type == "regression":
        targets = np.asarray([[ex.label] for ex in examples],
                             dtype=out.data.dtype)
        diff = out - Tensor(targets)
        return out, T.tmean(T.mul(diff, diff))
    labels = np.asarray([int(ex.label) for ex in examples])
    return out, T.cross_entropy(out, labels)


def _finetune(params: dict, cfg: RunConfig, examples: list, head: dict,
              steps: int, batch_loss) -> dict:
    """The fine-tuning loop of both heads: ``steps`` Adam steps on the
    encoder and ``head`` jointly, cycling through ``examples`` in order;
    ``batch_loss(batch)`` encodes one batch, with dropout, and returns
    its scalar loss."""
    trained = {**params, **head}
    for p in trained.values():
        p.requires_grad = True
    state = AdamState()
    n = len(examples)
    # overflow on the way to a non-finite gradient is caught by
    # adam_update's check, so numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            lo = (step * cfg.batch_size) % n
            batch = [examples[(lo + k) % n]
                     for k in range(min(cfg.batch_size, n))]
            zero_grads(trained)
            backward(batch_loss(batch))
            clip_global_norm(trained)
            adam_update(trained, state, cfg.finetune_lr, cfg)
    return head


def finetune_cls(params: dict, cfg: RunConfig, examples: list[ClsExample],
                 n_outputs: int, steps: int, seed: int = 0) -> dict:
    """Joint fine-tuning of the encoder and a fresh classifier head.

    Each batch is encoded as ``cls_accuracy`` encodes it: the last
    encoder layer runs, forward and backward, only at the feature rows.
    Trains the caller's encoder Tensors in ``params`` in place and
    returns only the new head; score with ``params`` plus the head.
    """
    if not examples:
        raise ContractError("finetune_cls needs at least one example")
    rng = np.random.default_rng([seed, 90])
    head = init_cls_head(cfg, n_outputs, len(examples[0].rows), rng)

    def batch_loss(batch):
        h = encode_batch(params, cfg, [ex.packed for ex in batch], rng,
                         training=True, rows=feature_rows(batch))
        return classify(h, batch, head, cfg)[1]

    return _finetune(params, cfg, examples, head, steps, batch_loss)


def cls_accuracy(params: dict, head: dict, cfg: RunConfig,
                 examples: list[ClsExample]) -> float:
    """Share of ``examples`` whose argmax class is the label; the
    encoder's last layer runs only at the feature rows. A regression
    head has no classes to take the argmax of."""
    if cfg.task_type == "regression":
        raise ContractError("cls_accuracy needs a classification task, "
                            "not regression")
    if not examples:
        raise ContractError("cls_accuracy needs at least one example")
    hits = 0
    with no_grad():
        for lo in range(0, len(examples), cfg.batch_size):
            batch = examples[lo:lo + cfg.batch_size]
            h = encode_batch(params, cfg, [ex.packed for ex in batch],
                             rows=feature_rows(batch))
            out, _ = classify(h, batch, head, cfg)
            preds = np.argmax(out.data, axis=1)
            hits += int(sum(p == int(ex.label)
                            for p, ex in zip(preds, batch)))
    return hits / len(examples)


# -- extractive QA ------------------------------------------------------


def pack_qa(context: str, question: str, gold_start: int, gold_end: int,
            vocab: Vocab, cfg: RunConfig) -> QaExample:
    """[CLS] question [SEP] then marked context sentences, segment 1.

    Gold indices address the tokenized context words; an answer that
    falls outside the packed context (bad indices or truncation) is a
    data error.
    """
    if not cfg.sentence_reps_enabled:
        raise ContractError("QA needs sentence representations enabled")
    q_words = vocab.encode(tokenize(question))
    sents = document_from_text(context, vocab).sentences
    if not sents or not q_words:
        raise DataError("QA example needs a non-empty question and context")
    n_context_words = sum(len(s) for s in sents)
    if not (0 <= gold_start <= gold_end < n_context_words):
        raise DataError(
            f"gold span [{gold_start},{gold_end}] outside context "
            f"of {n_context_words} words")

    packed = pack_segments([sents], cfg.seq_len, cfg.max_sentences,
                           lead=q_words)
    spans = packed.sentence_spans
    if gold_end >= sum(end - start for _, start, end in spans):
        raise DataError("gold span truncated away while packing")
    word_positions = np.concatenate(
        [np.arange(start, end) for _, start, end in spans])
    return QaExample(
        packed=packed,
        word_positions=word_positions,
        marker_positions=np.asarray([sent_pos for sent_pos, _, _ in spans]),
        gold_start=gold_start,
        gold_end=gold_end,
        gold_sentence=int(packed.sentence_ids[word_positions[gold_start]]),
    )


def read_qa_jsonl(path: str, vocab: Vocab, cfg: RunConfig) -> list[QaExample]:
    out = []
    for ln, line in _nonblank_lines(path):
        try:
            rec = json.loads(line)
            ctx, q = rec["context"], rec["question"]
            s, e = rec["answer_start_token"], rec["answer_end_token"]
            if not (isinstance(ctx, str) and isinstance(q, str)):
                raise TypeError("context and question must be strings")
            if not (type(s) is int and type(e) is int):  # bool is no index
                raise TypeError("answer token indices must be integers")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}:{ln}: malformed QA record: {exc}") from exc
        try:
            out.append(pack_qa(ctx, q, s, e, vocab, cfg))
        except DataError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from exc
    return out


def init_qa_head(cfg: RunConfig, rng) -> dict:
    return {name: Tensor(trunc_normal((cfg.hidden, 1), INIT_STD, rng),
                         requires_grad=True)
            for name in ("qa.start", "qa.end", "qa.sent")}


def qa_forward(h: Tensor, examples: list[QaExample], head: dict):
    """Loss and masked logits of the three pointers over a whole batch.

    Each of ``qa.start``, ``qa.end`` and ``qa.sent`` scores every row of
    ``h`` [B, L, hidden] in one product, [B, L]. A constant additive
    mask, as attention masks padding, leaves the example's context-word
    rows (its [SENT] rows for the sentence pointer) and puts ``NEG_INF``
    everywhere else, so each softmax runs over the example's own
    candidates. The loss is the sum of the three pointers' batch-mean
    cross-entropies, with targets at packed positions. Returns (loss,
    (start, end, sentence) masked logits as [B, L] arrays).
    """
    bsz, length, hidden = h.shape
    if len(examples) != bsz:
        raise ContractError(f"qa_forward got {len(examples)} examples for "
                            f"an encoder batch of {bsz}")
    word_bias = np.full((bsz, length), NEG_INF, dtype=h.data.dtype)
    sent_bias = word_bias.copy()
    for b, ex in enumerate(examples):
        word_bias[b, ex.word_positions] = 0.0
        sent_bias[b, ex.marker_positions] = 0.0
    targets = [
        [ex.word_positions[ex.gold_start] for ex in examples],
        [ex.word_positions[ex.gold_end] for ex in examples],
        [ex.marker_positions[ex.gold_sentence] for ex in examples],
    ]
    flat = h.reshape(bsz * length, hidden)
    loss, logits = None, []
    for name, bias, target in zip(("qa.start", "qa.end", "qa.sent"),
                                  (word_bias, word_bias, sent_bias), targets):
        scores = T.matmul(flat, head[name]).reshape(bsz, length) + bias
        term = T.cross_entropy(scores, target)
        loss = term if loss is None else loss + term
        logits.append(scores.data)
    return loss, tuple(logits)


def best_span(start_logits: np.ndarray, end_logits: np.ndarray,
              max_answer_len: int) -> tuple[int, int]:
    """Highest-scoring (start, end) with start <= end < start + window.

    Scores only the legal band, a [starts, window] array whose row i
    adds start i to the ends i .. i + window - 1, with -inf past the
    last end. Ties go to the first pair in row-major order; (0, 0) when
    no legal pair scores above -inf.
    """
    n = start_logits.shape[0]
    width = min(max_answer_len, end_logits.shape[0])
    if n == 0 or width <= 0:
        return 0, 0
    padded = np.full(n + width - 1, -np.inf, dtype=end_logits.dtype)
    ends = end_logits[:padded.size]
    padded[:ends.size] = ends
    scores = start_logits[:, None] + padded[np.arange(n)[:, None]
                                            + np.arange(width)]
    # a NaN score never wins, exactly as under a strict ">" scan
    scores[np.isnan(scores)] = -np.inf
    # argmax returns the first maximum, which is (0, 0) when all are -inf
    i, k = divmod(int(np.argmax(scores)), width)
    return i, i + k


def finetune_qa(params: dict, cfg: RunConfig, examples: list[QaExample],
                steps: int, seed: int = 0) -> dict:
    """Joint fine-tuning of the encoder and a fresh QA head on the
    ``qa_forward`` loss of each batch, which runs no span search. Like
    ``finetune_cls``, trains the caller's encoder Tensors in place and
    returns only the new head."""
    if not examples:
        raise ContractError("finetune_qa needs at least one example")
    rng = np.random.default_rng([seed, 91])
    head = init_qa_head(cfg, rng)

    def batch_loss(batch):
        h = encode_batch(params, cfg, [ex.packed for ex in batch], rng,
                         training=True)
        return qa_forward(h, batch, head)[0]

    return _finetune(params, cfg, examples, head, steps, batch_loss)


def qa_metrics(params: dict, head: dict, cfg: RunConfig,
               examples: list[QaExample]) -> dict:
    """Exact-match of the span, and how often the predicted sentence
    contains the predicted span (reported, not a training signal)."""
    if not examples:
        raise ContractError("qa_metrics needs at least one example")
    em = 0
    consistent = 0
    with no_grad():
        for lo in range(0, len(examples), cfg.batch_size):
            batch = examples[lo:lo + cfg.batch_size]
            h = encode_batch(params, cfg, [ex.packed for ex in batch])
            _, (start, end, sent) = qa_forward(h, batch, head)
            for b, ex in enumerate(batch):
                words = ex.word_positions
                ps, pe = best_span(start[b, words], end[b, words],
                                   MAX_ANSWER_LEN)
                psent = int(np.argmax(sent[b, ex.marker_positions]))
                em += int(ps == ex.gold_start and pe == ex.gold_end)
                span_sents = ex.packed.sentence_ids[words[[ps, pe]]]
                consistent += int(span_sents[0] == psent == span_sents[1])
    n = len(examples)
    return {"n": n, "em": em / n, "sentence_consistency": consistent / n}
