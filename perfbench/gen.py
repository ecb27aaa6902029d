"""Seeded inputs for the benchmark: ordered narratives and their tasks.

Everything here depends only on the seed, so an edit to the program or
to a test fixture cannot change what the benchmark feeds the program.
The program receives the files written by ``write_inputs``:

- ``train.txt`` / ``heldout.txt``: prepared corpora (one sentence per
  line, a blank line between documents), the format ``slm prepare``
  writes.
- ``pairs.tsv``: ``label<TAB>sentence<TAB>sentence`` rows, labelled
  ``in_order`` when the second sentence directly follows the first in
  its document and ``swapped`` when the two were exchanged.
- ``qa.jsonl``: extractive QA records whose answer is ``the <object>``
  of one sentence, as token indices into the tokenized context.

Two document shapes exist. ``story`` documents have four sentences
ordered by lexical cues, which pack into about 40% of a 128-position
sequence. ``long`` documents have 20 to 30 sentences whose lengths are
chosen so the whole document holds about 250 words, which packs close
to full at 256 positions with 18 to 20 sentences kept.
"""
from __future__ import annotations

import json
import os
import re

import numpy as np

NAMES = ["ada", "bram", "cleo", "dmitri", "esme", "farid", "greta", "hugo",
         "ines", "jonas", "kira", "lev"]
VERBS = ["lifted", "mended", "sorted", "polished", "wrapped", "moved",
         "checked", "loaded", "emptied", "folded", "hung", "swept"]
OBJECTS = ["barrel", "net", "sack", "lamp", "cart", "jug", "sail", "chest",
           "broom", "pail", "cloak", "spade"]
PLACES = ["at the dock", "in the shed", "by the gate", "near the oven",
          "on the roof", "under the tree", "past the fence", "inside the hut"]

STORY_CUES = [
    ("First", "Then", "Next", "Finally"),
    ("In the morning", "At noon", "In the evening", "At night"),
    ("Step one", "Step two", "Step three", "Step four"),
]

_ONES = ["", "one", "two", "three", "four", "five", "six", "seven", "eight",
         "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
         "fifteen", "sixteen", "seventeen", "eighteen", "nineteen"]
_ORDINALS = ["", "first", "second", "third", "fourth", "fifth", "sixth",
             "seventh", "eighth", "ninth", "tenth", "eleventh", "twelfth",
             "thirteenth", "fourteenth", "fifteenth", "sixteenth",
             "seventeenth", "eighteenth", "nineteenth"]

# the data format's token definition: QA indices count these tokens
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

LONG_MIN_SENTENCES, LONG_MAX_SENTENCES = 20, 30
LONG_WORDS = (235, 265)


def _number(k: int) -> str:
    if k < 20:
        return _ONES[k]
    tens = {20: "twenty", 30: "thirty"}[k - k % 10]
    return tens if k % 10 == 0 else f"{tens}-{_ONES[k % 10]}"


def _ordinal(k: int) -> str:
    if k < 20:
        return _ORDINALS[k]
    tens = {20: "twenty", 30: "thirty"}[k - k % 10]
    return tens + "ieth" if k % 10 == 0 else f"{tens}-{_ORDINALS[k % 10]}"


def _long_cue(family: int, k: int) -> str:
    if family == 0:
        return _ordinal(k).capitalize()
    return f"On day {_number(k)}" if family == 1 else f"Step {_number(k)}"


def count_tokens(text: str) -> int:
    return len(_TOKEN_RE.findall(text.lower()))


def _sentence(rng, cue: str, place: bool, partner: bool) -> tuple[str, str]:
    """One narrative sentence and the object it mentions."""
    name = NAMES[rng.integers(len(NAMES))]
    verb = VERBS[rng.integers(len(VERBS))]
    obj = OBJECTS[rng.integers(len(OBJECTS))]
    words = f"{cue}, {name} {verb} the {obj}"
    if place:
        words += " " + PLACES[rng.integers(len(PLACES))]
    if partner:
        words += " with " + NAMES[rng.integers(len(NAMES))]
    return words + ".", obj


def make_story(rng) -> list[tuple[str, str]]:
    cues = STORY_CUES[rng.integers(len(STORY_CUES))]
    return [_sentence(rng, cue, place=True, partner=False) for cue in cues]


def make_long_doc(rng) -> list[tuple[str, str]]:
    """20-30 cue-ordered sentences padded out to about 250 words.

    Every sentence starts short; place and partner phrases are then
    added to random sentences until the document reaches its word
    target, so documents with fewer sentences get longer ones.
    """
    n = int(rng.integers(LONG_MIN_SENTENCES, LONG_MAX_SENTENCES + 1))
    target = int(rng.integers(*LONG_WORDS))
    family = int(rng.integers(3))
    extras = [[False, False] for _ in range(n)]
    base = [count_tokens(_long_cue(family, k + 1)) + 6 for k in range(n)]
    total = sum(base)
    for _ in range(3 * n):
        if total >= target:
            break
        k = int(rng.integers(n))
        if not extras[k][0]:
            extras[k][0] = True
            total += 3
        elif not extras[k][1]:
            extras[k][1] = True
            total += 2
    return [_sentence(rng, _long_cue(family, k + 1), *extras[k])
            for k in range(n)]


def make_docs(shape: str, n_docs: int, seed: int, stream: int):
    rng = np.random.default_rng([seed, stream])
    make = make_story if shape == "story" else make_long_doc
    return [make(rng) for _ in range(n_docs)]


def pair_rows(docs, n_rows: int, seed: int) -> list[str]:
    """Adjacent sentence pairs, half of them swapped."""
    rng = np.random.default_rng([seed, 31])
    rows = []
    for i in range(n_rows):
        doc = docs[i % len(docs)]
        k = int(rng.integers(len(doc) - 1))
        a, b = doc[k][0], doc[k + 1][0]
        if rng.random() < 0.5:
            rows.append(f"in_order\t{a}\t{b}")
        else:
            rows.append(f"swapped\t{b}\t{a}")
    return rows


def qa_records(docs, n_rows: int, seed: int, max_answer_sentence: int):
    """Questions about the object of one early sentence of a document."""
    rng = np.random.default_rng([seed, 32])
    out = []
    for i in range(n_rows):
        doc = docs[i % len(docs)]
        k = int(rng.integers(min(len(doc), max_answer_sentence)))
        sentence, obj = doc[k]
        before = sum(count_tokens(s) for s, _ in doc[:k])
        head = sentence[:sentence.index(f" the {obj}")]
        start = before + count_tokens(head)
        cue = sentence.split(",")[0].lower()
        out.append({
            "context": " ".join(s for s, _ in doc),
            "question": f"What was handled {cue}?",
            "answer_start_token": start,
            "answer_end_token": start + 1,
        })
    return out


def _write_prepared(path: str, docs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join("\n".join(s for s, _ in doc) for doc in docs))
        fh.write("\n")


def write_inputs(out_dir: str, shape: str, seed: int, train_seed: int,
                 n_train: int, n_heldout: int, n_pairs: int,
                 n_qa: int) -> dict:
    """Write the four input files for one workload; returns their paths.

    The training corpus comes from ``train_seed``, everything else from
    ``seed``.
    """
    train = make_docs(shape, n_train, train_seed, 11)
    heldout = make_docs(shape, n_heldout, seed, 12)
    tasks = make_docs(shape, max(n_pairs, n_qa), seed, 13)
    paths = {name: os.path.join(out_dir, name) for name in
             ("train.txt", "heldout.txt", "pairs.tsv", "qa.jsonl")}
    _write_prepared(paths["train.txt"], train)
    _write_prepared(paths["heldout.txt"], heldout)
    with open(paths["pairs.tsv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(pair_rows(tasks, n_pairs, seed)) + "\n")
    with open(paths["qa.jsonl"], "w", encoding="utf-8") as fh:
        for rec in qa_records(tasks, n_qa, seed, max_answer_sentence=8):
            fh.write(json.dumps(rec) + "\n")
    return paths
