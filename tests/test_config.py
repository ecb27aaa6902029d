"""Range checks of RunConfig.validate: every out-of-range value raises
ContractError naming its field; the edges that mean something stay
valid. Retired keys are not fields, and both profiles survive the
config echo round trip."""
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slm.config import (_RETIRED, PROFILES, RunConfig, config_echo,
                        config_from_echo, resolve_config)
from slm.errors import ContractError

NAN_OR_INF = st.sampled_from([math.nan, math.inf, -math.inf])


def below(bound):
    return st.integers(max_value=bound - 1)


def floats_outside(lo, hi, lo_open=False, hi_open=False):
    """Floats outside [lo, hi]; an open end also rejects the bound."""
    low = st.floats(max_value=lo, exclude_max=not lo_open, allow_nan=False)
    high = st.floats(min_value=hi, exclude_min=not hi_open, allow_nan=False)
    return low | high | NAN_OR_INF


def not_positive_finite():
    return st.floats(max_value=0.0, allow_nan=False) | NAN_OR_INF


def negative_or_not_finite():
    return (st.floats(max_value=0.0, exclude_max=True, allow_nan=False)
            | NAN_OR_INF)


BAD_VALUES = {
    **{key: below(1) for key in (
        "heads", "hidden", "ffn", "vocab_size", "batch_size", "steps",
        "accum_steps", "max_sentences", "top_k")},
    **{key: below(0) for key in (
        "encoder_layers", "decoder_layers", "finetune_epochs",
        "checkpoint_every", "log_every", "seed")},
    "warmup": below(0),
    "query_row": below(-1),
    "seq_len": below(4),
    "dropout": floats_outside(0.0, 1.0, hi_open=True),
    "shuffle_fraction": floats_outside(0.0, 1.0),
    "adam_eps": not_positive_finite(),
    **{key: negative_or_not_finite() for key in (
        "peak_lr", "finetune_lr")},
    "task_type": st.text().filter(
        lambda s: s not in ("classification", "regression")),
}


@st.composite
def bad_field(draw):
    key = draw(st.sampled_from(sorted(BAD_VALUES)))
    return key, draw(BAD_VALUES[key])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(bad_field())
def test_out_of_range_value_raises_contract_error(case):
    key, value = case
    with pytest.raises(ContractError, match=key if key != "seq_len"
                       else "seq_len too small"):
        replace(RunConfig(), **{key: value}).validate()


@pytest.mark.parametrize("change", [
    {"encoder_layers": 0}, {"decoder_layers": 0},
    {"warmup": 0}, {"peak_lr": 0.0}, {"seed": 0},
    {"dropout": 0.0}, {"shuffle_fraction": 1.0},
    {"query_row": -1}, {"checkpoint_every": 0}, {"log_every": 0},
    {"finetune_epochs": 0},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_meaningful_edges_stay_valid(change):
    replace(RunConfig(), **change).validate()


def test_retired_keys_are_not_fields():
    assert not set(_RETIRED) & {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profiles_round_trip_through_the_echo(profile):
    cfg = resolve_config(profile)
    assert config_from_echo(config_echo(cfg)) == cfg
