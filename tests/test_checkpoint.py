import struct

import numpy as np
import pytest

from slm.checkpoint import (FORMAT_VERSION, MAGIC, load_checkpoint,
                            save_checkpoint)
from slm.encoder import encode_batch
from slm.errors import FormatError
from slm.optim import AdamState
from slm.shuffling import identity_record
from slm.tensor import Tensor

from util import build_params, masked_example, small_config


def save_small(tmp_path, with_opt=True, seed=0):
    cfg = small_config()
    params = build_params(cfg, seed=seed)
    state = None
    if with_opt:
        state = AdamState()
        state.t = 7
        for name, p in params.items():
            state.m[name] = np.full_like(p.data, 0.25)
            state.v[name] = np.full_like(p.data, 0.5)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, cfg, params, step=123, opt_state=state)
    return cfg, params, state, path


def test_round_trip_is_bitwise(tmp_path):
    cfg, params, state, path = save_small(tmp_path)
    ck = load_checkpoint(path, expected_names=params.keys())
    assert ck.step == 123
    assert ck.config == cfg
    assert set(ck.params) == set(params)
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()
    assert ck.opt_state.t == 7
    for name in params:
        assert ck.opt_state.m[name].tobytes() == state.m[name].tobytes()
        assert ck.opt_state.v[name].tobytes() == state.v[name].tobytes()


def test_two_saves_of_same_state_are_identical_files(tmp_path):
    cfg, params, state, path1 = save_small(tmp_path)
    path2 = str(tmp_path / "again.bin")
    save_checkpoint(path2, cfg, params, step=123, opt_state=state)
    assert open(path1, "rb").read() == open(path2, "rb").read()


def test_loaded_params_reproduce_forward_bitwise(tmp_path):
    cfg, params, _, path = save_small(tmp_path)
    ck = load_checkpoint(path)
    rng = np.random.default_rng(1)
    ex = identity_record(masked_example(cfg, rng))
    h1 = encode_batch(params, cfg, [ex])
    h2 = encode_batch(ck.params, cfg, [ex])
    assert h1.data.tobytes() == h2.data.tobytes()


def test_bad_magic_is_a_format_error(tmp_path):
    _, _, _, path = save_small(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(str(bad))


def test_bad_version_is_a_format_error(tmp_path):
    _, _, _, path = save_small(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[len(MAGIC)] = FORMAT_VERSION + 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(str(bad))


def test_truncation_is_a_format_error(tmp_path):
    _, _, _, path = save_small(tmp_path)
    blob = open(path, "rb").read()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(str(bad))


@pytest.mark.parametrize("old,new,message", [
    pytest.param(b"adam_eps=1e-06", b"adam_eps=\xffe-06", "undecodable",
                 id="eps-undecodable"),
    (b"emb.token", b"emb.\xffoken", "undecodable"),
    pytest.param(b"adam_eps=1e-06", b"adam_eps=-1e-6",
                 "stored config: adam_eps must be positive",
                 id="eps-out-of-range"),
])
def test_undecodable_or_invalid_stored_text_is_a_format_error(
        tmp_path, old, new, message):
    _, _, _, path = save_small(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(open(path, "rb").read().replace(old, new, 1))
    with pytest.raises(FormatError, match=f"{bad}: {message}"):
        load_checkpoint(str(bad))


def test_missing_tensor_names_are_listed(tmp_path):
    cfg, params, _, _ = save_small(tmp_path)
    partial = {n: p for n, p in params.items() if n != "emb.token"}
    path = str(tmp_path / "partial.bin")
    save_checkpoint(path, cfg, partial, step=1)
    with pytest.raises(FormatError, match="missing tensors: emb.token"):
        load_checkpoint(path, expected_names=params.keys())


def test_unexpected_tensor_names_are_listed(tmp_path):
    cfg, params, _, path = save_small(tmp_path)
    expected = [n for n in params if n != "mlm.bias"]
    with pytest.raises(FormatError, match="unexpected tensors: mlm.bias"):
        load_checkpoint(path, expected_names=expected)


def test_checkpoint_without_optimizer_state(tmp_path):
    cfg, params, _, _ = save_small(tmp_path, with_opt=False)
    path = str(tmp_path / "noopt.bin")
    save_checkpoint(path, cfg, params, step=5)
    ck = load_checkpoint(path)
    assert ck.opt_state is None
    assert ck.step == 5


class _FailingTensor:
    """A parameter whose payload cannot be read: the save fails partway,
    after the header and the tensors sorted before it were written."""

    @property
    def data(self):
        raise OSError("disk full")


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    cfg, params, state, path = save_small(tmp_path)
    before = open(path, "rb").read()
    broken = dict(params)
    broken["zz.broken"] = _FailingTensor()
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, cfg, broken, step=124, opt_state=state)
    assert open(path, "rb").read() == before
    assert load_checkpoint(path, expected_names=params.keys()).step == 123
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]


def test_stored_config_with_the_retired_dev_file_key_loads(tmp_path,
                                                           monkeypatch):
    """Checkpoints written while RunConfig had ``dev_file`` still load."""
    from slm import checkpoint
    from slm.config import config_echo
    monkeypatch.setattr(checkpoint, "config_echo", lambda cfg: sorted(
        config_echo(cfg) + [("dev_file", "dev.txt")]))
    cfg, params, _, path = save_small(tmp_path, with_opt=False)
    monkeypatch.undo()
    ck = load_checkpoint(path, expected_names=params.keys())

    def current(c):
        return [pair for pair in config_echo(c) if pair[0] != "dev_file"]
    assert current(ck.config) == current(cfg)
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()


def test_stored_config_with_the_retired_gradcheck_dtype_key_loads(
        tmp_path, monkeypatch):
    """Checkpoints written while RunConfig had ``gradcheck_dtype`` still
    load."""
    from slm import checkpoint
    from slm.config import config_echo
    monkeypatch.setattr(checkpoint, "config_echo", lambda cfg: sorted(
        config_echo(cfg) + [("gradcheck_dtype", "float64")]))
    cfg, params, _, path = save_small(tmp_path, with_opt=False)
    monkeypatch.undo()
    assert b"gradcheck_dtype=float64" in open(path, "rb").read()
    ck = load_checkpoint(path, expected_names=params.keys())
    assert config_echo(ck.config) == config_echo(cfg)
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()


def save_with_stored_key(tmp_path, monkeypatch, key, value, **others):
    """save_small with one more ``key=value`` pair in the stored config,
    as a checkpoint written while RunConfig had that key would hold;
    ``others`` are more pairs laid over the stored config."""
    from slm import checkpoint
    from slm.config import config_echo
    monkeypatch.setattr(checkpoint, "config_echo", lambda cfg: sorted(
        {**dict(config_echo(cfg)), **others, key: value}.items()))
    saved = save_small(tmp_path)
    monkeypatch.undo()
    assert f"{key}={value}".encode() in open(saved[3], "rb").read()
    return saved


def assert_loads_as_saved(cfg, params, state, path):
    """What ``save_small`` saved at ``path`` loads with ``cfg``'s echo and
    exactly the saved step, tensors and Adam state."""
    from slm.config import config_echo
    ck = load_checkpoint(path, expected_names=params.keys())
    assert config_echo(ck.config) == config_echo(cfg)
    assert ck.step == 123 and ck.opt_state.t == state.t
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()
        assert ck.opt_state.m[name].tobytes() == state.m[name].tobytes()
        assert ck.opt_state.v[name].tobytes() == state.v[name].tobytes()


def test_stored_resequence_position_mode_loads(tmp_path, monkeypatch):
    """Checkpoints written while RunConfig had ``position_mode`` load
    with identical tensors when it holds resequence, the layout that is
    left."""
    assert_loads_as_saved(*save_with_stored_key(
        tmp_path, monkeypatch, "position_mode", "resequence"))


RETIRED_PAIRS = [
    ("p_geom", "0.2"), ("p_geom", "2.0"), ("max_span", "3"),
    ("max_span", "0"), ("mask_rate", "0.15"), ("mask_rate", "0.5"),
    ("replace_mask", "0.8"), ("replace_mask", "x"),
    ("replace_random", "0.1"), ("replace_random", "-1"),
    ("replace_keep", "0.1"), ("replace_keep", "0.3"),
    ("gradcheck_tol", "0.001"), ("gradcheck_tol", "nan"),
]


@pytest.mark.parametrize("key,value", RETIRED_PAIRS,
                         ids=["=".join(pair) for pair in RETIRED_PAIRS])
def test_stored_masking_and_tolerance_keys_load(tmp_path, monkeypatch,
                                                key, value):
    """Checkpoints written while the masking recipe and the gradcheck
    tolerance were config keys load with identical tensors, whatever
    value they stored: no checkpoint command masks or gradchecks."""
    assert_loads_as_saved(*save_with_stored_key(
        tmp_path, monkeypatch, key, value))


def test_stored_layer_norm_adam_and_attention_keys_load(tmp_path,
                                                        monkeypatch):
    """Checkpoints written while the layer norm epsilon, Adam's betas,
    weight decay and clipping norm, the attention dropout and the QA
    answer window were config keys load with identical tensors when they
    hold the values the code now uses (attn_dropout equal to the stored
    dropout, 0.0 in ``small_config``)."""
    assert_loads_as_saved(*save_with_stored_key(
        tmp_path, monkeypatch, "layer_norm_eps", "1e-05", beta1="0.9",
        beta2="0.999", attn_dropout="0.0", weight_decay="0.01",
        grad_clip="1.0", max_answer_len="30"))


@pytest.mark.parametrize("key,value,others", [
    ("layer_norm_eps", "1e-12", {}), ("beta2", "0.98", {}),
    ("attn_dropout", "0.0", {"dropout": "0.1"}),
    ("weight_decay", "0.0", {}), ("grad_clip", "0.0", {}),
    ("max_answer_len", "10", {}),
], ids=["layer_norm_eps", "beta2", "attn_dropout", "weight_decay",
        "grad_clip", "max_answer_len"])
def test_stored_layer_norm_adam_or_attention_key_off_its_value_is_refused(
        tmp_path, monkeypatch, key, value, others):
    """Fine-tuning runs layer norm, Adam with weight decay and clipping,
    attention dropout and the QA answer window, so a checkpoint trained
    with another value is refused, naming the key."""
    _, _, _, path = save_with_stored_key(tmp_path, monkeypatch, key, value,
                                         **others)
    with pytest.raises(FormatError, match=f"{path}: stored config: retired "
                       f"key {key}={value} no longer loads"):
        load_checkpoint(path)


def test_stored_negative_seed_is_a_format_error(tmp_path, monkeypatch):
    _, _, _, path = save_with_stored_key(tmp_path, monkeypatch, "seed", "-1")
    with pytest.raises(FormatError, match=f"{path}: stored config: seed "
                       "must be >= 0"):
        load_checkpoint(path)


def test_stored_travel_position_mode_is_a_format_error(tmp_path,
                                                       monkeypatch):
    """travel positions leaked the order; such a checkpoint is refused,
    not read as a model with the other layout."""
    _, _, _, path = save_with_stored_key(tmp_path, monkeypatch,
                                         "position_mode", "travel")
    with pytest.raises(FormatError, match=f"{path}: stored config: retired "
                       "key position_mode=travel"):
        load_checkpoint(path)


def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The rename lives in the directory, so the directory is synced once
    the new file is in place: after a power cut the path still names
    the new checkpoint."""
    import os
    import stat
    path = tmp_path / "ckpt.bin"
    synced = []
    fsync = os.fsync

    def recording(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino, path.exists()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    save_small(tmp_path)
    monkeypatch.undo()
    file_sync, dir_sync = synced
    assert file_sync[0] is False and file_sync[2] is False
    assert dir_sync == (True, os.stat(tmp_path).st_ino, True)


@pytest.mark.parametrize("where", ["param", "m", "v"])
def test_non_finite_tensor_or_moment_is_a_format_error(tmp_path, where):
    cfg, params, state, _ = save_small(tmp_path)
    if where == "param":
        params["emb.token"].data[2, 3] = np.inf
    else:
        getattr(state, where)["emb.token"][2, 3] = np.nan
    path = str(tmp_path / "bad.bin")
    save_checkpoint(path, cfg, params, step=1, opt_state=state)
    name = "emb.token" if where == "param" else f"{where}:emb.token"
    with pytest.raises(FormatError,
                       match=f"{path}: tensor {name} holds non-finite"):
        load_checkpoint(path)


def test_non_finite_scalar_tensor_is_a_format_error(tmp_path):
    cfg, _, _, _ = save_small(tmp_path)
    path = str(tmp_path / "scalar.bin")
    save_checkpoint(path, cfg, {"x": Tensor(np.float32(np.nan))}, step=1)
    with pytest.raises(FormatError, match=f"{path}: tensor x holds non-finite"):
        load_checkpoint(path)


def test_empty_tensor_with_an_impossible_dim_is_a_format_error(tmp_path):
    cfg, _, _, _ = save_small(tmp_path)
    empty = Tensor(np.zeros((0, 3), dtype=np.float32))
    path = str(tmp_path / "empty.bin")
    save_checkpoint(path, cfg, {"x": empty}, step=1)
    blob = open(path, "rb").read()
    dims = struct.pack("<QQ", 0, 3)
    with open(path, "wb") as fh:
        fh.write(blob.replace(dims, struct.pack("<QQ", 0, 2**63), 1))
    with pytest.raises(FormatError, match=f"{path}: tensor x has shape"):
        load_checkpoint(path)
