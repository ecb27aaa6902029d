"""Flat run configuration, profiles, and key=value parsing.

Every knob lives in one flat dataclass so a config file is just
``key = value`` lines and a CLI override is ``--set key=value``. The
``tiny`` profile is for desk experiments; ``paper`` mirrors the
published pretraining setup (12/3 layer encoder/decoder, hidden 768,
30522-token vocabulary, 256x512 batches, 1M steps with 10k warmup at
peak rate 1.5e-4).

``RunConfig`` is the only config object and ``RunConfig.validate`` the
only check of its fields. ``command_line_keys`` gives the keys that
``--config``, ``--set`` and ``--seed`` set; ``resolve_config`` lays them
on a profile, the CLI on a checkpoint's stored config. A key that no
command reads is deleted: ``--set`` rejects it like any unknown key and
``config_from_echo`` drops it from older checkpoints (``_RETIRED``),
unless the stored value described a model the code no longer builds.
Settings every run shares are constants, not keys: the masking recipe
(``masking.P_GEOM``, ``MAX_SPAN``, ``MASK_RATE``, ``REPLACE_MASK``,
``REPLACE_RANDOM``), the gradcheck tolerance (``tensor.GRADCHECK_TOL``),
the layer norm epsilon (``tensor._norm``'s default), Adam's betas
(``optim.BETA1``, ``BETA2``), the weight decay and the gradient clipping
norm (``optim.WEIGHT_DECAY``, ``GRAD_CLIP``) and the QA answer window
(``heads.MAX_ANSWER_LEN``). Attention dropout runs at ``dropout``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ContractError, read_text
from .textpipe import NUM_SPECIALS


@dataclass
class RunConfig:
    # model geometry
    encoder_layers: int = 2
    decoder_layers: int = 1
    heads: int = 2
    hidden: int = 64
    ffn: int = 256
    seq_len: int = 128
    max_sentences: int = 8
    vocab_size: int = 2000
    dropout: float = 0.1

    # objective switches
    shuffle_fraction: float = 0.5
    sr_enabled: bool = True
    sentence_reps_enabled: bool = True

    # optimization
    batch_size: int = 8
    steps: int = 5000
    warmup: int = 100
    peak_lr: float = 1.5e-4
    adam_eps: float = 1e-6
    accum_steps: int = 1
    seed: int = 0

    # bookkeeping. timing is opt-in because throughput numbers make
    # otherwise identical runs produce different metrics files
    checkpoint_every: int = 1000
    log_every: int = 1
    timing_enabled: bool = False

    # paths (set per command)
    corpus: str = ""
    vocab: str = ""
    eval_corpus: str = ""
    checkpoint: str = ""
    train_file: str = ""
    index: str = ""

    # fine-tuning
    task_type: str = "classification"
    finetune_lr: float = 5e-4
    finetune_epochs: int = 3

    # probing
    query_row: int = -1
    top_k: int = 5

    def validate(self) -> "RunConfig":
        for keys, in_range, rule in _RANGES:
            for key in keys:
                if not in_range(getattr(self, key)):
                    raise ContractError(f"{key} {rule}")
        if self.hidden % self.heads:
            raise ContractError("hidden size must divide evenly across heads")
        if self.seq_len < 4:
            raise ContractError("seq_len too small for [CLS] [SENT] w [SEP]")
        if self.task_type not in ("classification", "regression"):
            raise ContractError(f"unknown task_type {self.task_type!r}")
        if self.warmup > self.steps:
            raise ContractError("warmup cannot exceed total steps")
        if self.sr_enabled and not self.sentence_reps_enabled:
            raise ContractError(
                "the reconstructor needs sentence representations enabled")
        return self


# (fields, test, what the test demands). Comparisons are written so that
# NaN fails every one
_RANGES = (
    (("heads", "hidden", "ffn", "batch_size", "steps", "accum_steps",
      "max_sentences", "top_k"),
     lambda v: v >= 1, "must be >= 1"),
    (("vocab_size",), lambda v: v > NUM_SPECIALS,
     f"must exceed the {NUM_SPECIALS} special tokens"),
    (("encoder_layers", "decoder_layers", "warmup", "finetune_epochs",
      "checkpoint_every", "log_every", "seed"),
     lambda v: v >= 0, "must be >= 0"),
    (("query_row",), lambda v: v >= -1, "must be >= -1 (-1: no query)"),
    (("dropout",), lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    (("shuffle_fraction",), lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    (("adam_eps",), lambda v: 0 < v < math.inf,
     "must be positive and finite"),
    (("peak_lr", "finetune_lr"),
     lambda v: 0 <= v < math.inf, "must be >= 0 and finite"),
)


PROFILES = {
    "tiny": {},
    "paper": {
        "encoder_layers": 12,
        "decoder_layers": 3,
        "heads": 12,
        "hidden": 768,
        "ffn": 3072,
        "seq_len": 512,
        "max_sentences": 20,
        "vocab_size": 30522,
        "dropout": 0.1,
        "batch_size": 256,
        "steps": 1_000_000,
        "warmup": 10_000,
        "peak_lr": 1.5e-4,
        "adam_eps": 1e-6,
    },
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ContractError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ContractError(f"cannot parse boolean for {key}: {raw!r}")
    if kind in ("int", "float"):
        try:
            return int(raw) if kind == "int" else float(raw)
        except ValueError as exc:
            raise ContractError(
                f"cannot parse {kind} for {key}: {raw!r}") from exc
    return raw


def parse_config_file(path: str) -> dict:
    out = {}
    for ln, line in enumerate(read_text(path, "config").split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ContractError(f"{path}:{ln}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        out[key] = _coerce(key, value)
    return out


def command_line_keys(config_path: str | None = None,
                      overrides: list[str] | None = None,
                      seed: int | None = None) -> dict:
    """The keys the command line sets: the config file's, then each
    --set pair's, then --seed; a later source wins."""
    keys = parse_config_file(config_path) if config_path else {}
    for pair in overrides or []:
        if "=" not in pair:
            raise ContractError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        keys[key.strip()] = _coerce(key.strip(), value)
    if seed is not None:
        keys["seed"] = seed
    return keys


def resolve_config(profile: str = "tiny", config_path: str | None = None,
                   overrides: list[str] | None = None,
                   seed: int | None = None) -> RunConfig:
    """Profile defaults, then config file, then --set pairs, then --seed."""
    if profile not in PROFILES:
        raise ContractError(f"unknown profile {profile!r}")
    keys = command_line_keys(config_path, overrides, seed)
    return RunConfig(**{**PROFILES[profile], **keys}).validate()


def config_echo(cfg: RunConfig) -> list[tuple[str, str]]:
    """Stable key/value listing of the resolved config.

    Values are printed so that feeding each pair back through the
    key=value parser reproduces the config exactly.
    """
    out = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        out.append((f.name, str(getattr(cfg, f.name))))
    return out


# the value a retired key must hold to load (None: any). dev_file was
# never read; gradcheck_dtype=float32 could not pass the gradcheck
# tolerance; position_mode=travel leaked the order through positions.
# The masking recipe and the gradcheck tolerance are constants now, and
# no checkpoint command masks or gradchecks, so any stored value loads.
# Fine-tuning runs layer norm, Adam with weight decay and clipping,
# attention dropout and (QA) the answer window, so those keys load only
# at the value now used; attn_dropout's entry names the key whose stored
# value it must equal
_RETIRED = {"dev_file": None, "gradcheck_dtype": None,
            "position_mode": "resequence",
            **dict.fromkeys(("p_geom", "max_span", "mask_rate",
                             "replace_mask", "replace_random",
                             "replace_keep", "gradcheck_tol")),
            "layer_norm_eps": "1e-05", "beta1": "0.9", "beta2": "0.999",
            "attn_dropout": "dropout", "weight_decay": "0.01",
            "grad_clip": "1.0", "max_answer_len": "30"}


def config_from_echo(pairs) -> RunConfig:
    """Inverse of config_echo; retired keys of older checkpoints are
    dropped, and one holding a value no longer built is refused."""
    stored = dict(pairs)
    for k, v in pairs:
        want = _RETIRED.get(k)
        if want == "dropout":
            want = stored.get("dropout")
        if want not in (None, v):
            raise ContractError(f"retired key {k}={v} no longer loads")
    return RunConfig(**{k: _coerce(k, v) for k, v in pairs
                        if k not in _RETIRED}).validate()
