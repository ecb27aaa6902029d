"""Binary checkpoints: magic, version, config echo, named tensors,
optimizer state, step counter.

All integers are little-endian; tensor payloads are row-major 32-bit
floats. Tensors are written sorted by name so identical states produce
identical bytes. Saving goes through ``errors.write_atomic``, so a
failed, interrupted or power-cut save leaves a whole checkpoint.
Loading verifies the header and, when the caller passes the expected
tensor names, reports any missing or unexpected ones by name. A path
that cannot be opened is a DataError; a file that is not a well-formed
checkpoint is a FormatError naming it. One reader (``read_exact``,
``read_f32``, ``first_non_finite_row``) serves the probe index too: a
size larger than the bytes left is refused before anything is read, as
are an empty shape with an impossible dimension and a tensor, Adam
moment or index row holding NaN or Inf, which the model's ops do not
check for themselves.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, config_echo, config_from_echo
from .errors import ContractError, DataError, FormatError, write_atomic
from .optim import AdamState
from .tensor import Tensor

MAGIC = b"SLMCKPT\x00"
FORMAT_VERSION = 1


def _write_bytes(fh, payload: bytes):
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _write_tensor(fh, name: str, arr: np.ndarray):
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_exact(fh, n: int) -> bytes:
    # n may come from the file: compare it (a Python int) with the bytes
    # left before reading, so a corrupt length never asks for more
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise FormatError(f"{fh.name}: file truncated: a field needs "
                          f"{n} bytes, {left} remain")
    return buf


def _read_bytes(fh) -> bytes:
    (n,) = struct.unpack("<Q", read_exact(fh, 8))
    return read_exact(fh, n)


def read_f32(fh, shape: tuple, what: str) -> np.ndarray:
    """A fresh float32 copy of the row-major little-endian array of
    ``shape`` at ``fh``'s position; ``what`` names it in a FormatError."""
    raw = read_exact(fh, 4 * math.prod(shape))
    try:
        data = np.frombuffer(raw, dtype="<f4").reshape(shape)
    except ValueError as exc:   # an empty array with a huge dim
        raise FormatError(f"{fh.name}: {what} has shape {shape}: "
                          f"{exc}") from exc
    return data.astype(np.float32)


def first_non_finite_row(data: np.ndarray) -> int | None:
    """The first row of ``data`` holding NaN or Inf, or None."""
    if np.isfinite(data).all():     # one whole-array pass when finite
        return None
    return int(np.argwhere(~np.isfinite(data))[0, 0]) if data.ndim else 0


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", read_exact(fh, 2))
    name = read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<B", read_exact(fh, 1))
    shape = struct.unpack(f"<{ndim}Q", read_exact(fh, 8 * ndim))
    data = read_f32(fh, shape, f"tensor {name}")
    if first_non_finite_row(data) is not None:
        raise FormatError(f"{fh.name}: tensor {name} holds non-finite values")
    return name, data


@dataclass
class Checkpoint:
    step: int
    config: RunConfig
    params: dict
    opt_state: AdamState | None


def save_checkpoint(path: str, cfg: RunConfig, params: dict, step: int,
                    opt_state: AdamState | None = None) -> None:
    write_atomic(path, lambda fh: _write_checkpoint(fh, cfg, params, step,
                                                    opt_state))


def _write_checkpoint(fh, cfg: RunConfig, params: dict, step: int,
                      opt_state: AdamState | None) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<I", FORMAT_VERSION))
    fh.write(struct.pack("<Q", step))
    echo = "\n".join(f"{k}={v}" for k, v in config_echo(cfg))
    _write_bytes(fh, echo.encode("utf-8"))
    names = sorted(params)
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        _write_tensor(fh, name, params[name].data)
    if opt_state is None:
        fh.write(struct.pack("<B", 0))
    else:
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<Q", opt_state.t))
        moment_names = sorted(opt_state.m)
        fh.write(struct.pack("<I", len(moment_names)))
        for name in moment_names:
            _write_tensor(fh, "m:" + name, opt_state.m[name])
            _write_tensor(fh, "v:" + name, opt_state.v[name])


def load_checkpoint(path: str, expected_names=None) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            ck = _read_checkpoint(fh, path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: undecodable text: {exc}") from exc
    if expected_names is not None:
        check_tensor_names(path, ck, expected_names)
    return ck


def _read_checkpoint(fh, path: str) -> Checkpoint:
    if read_exact(fh, len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint")
    (version,) = struct.unpack("<I", read_exact(fh, 4))
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (step,) = struct.unpack("<Q", read_exact(fh, 8))
    echo = _read_bytes(fh).decode("utf-8")
    pairs = [line.partition("=")[::2] for line in echo.splitlines() if line]
    try:
        cfg = config_from_echo(pairs)
    except ContractError as exc:
        raise FormatError(f"{path}: stored config: {exc}") from exc
    (n_tensors,) = struct.unpack("<I", read_exact(fh, 4))
    params = {}
    for _ in range(n_tensors):
        name, data = _read_tensor(fh)
        params[name] = Tensor(data, requires_grad=True)
    (has_opt,) = struct.unpack("<B", read_exact(fh, 1))
    opt_state = None
    if has_opt:
        opt_state = AdamState()
        (opt_state.t,) = struct.unpack("<Q", read_exact(fh, 8))
        (n_moments,) = struct.unpack("<I", read_exact(fh, 4))
        for _ in range(n_moments):
            m_name, m_data = _read_tensor(fh)
            v_name, v_data = _read_tensor(fh)
            if not (m_name.startswith("m:") and v_name.startswith("v:")):
                raise FormatError(f"{path}: malformed optimizer record")
            opt_state.m[m_name[2:]] = m_data
            opt_state.v[v_name[2:]] = v_data
    return Checkpoint(step=step, config=cfg, params=params,
                      opt_state=opt_state)


def check_tensor_names(path: str, ck: Checkpoint, expected_names) -> None:
    """Raise FormatError naming every missing and unexpected tensor."""
    have = set(ck.params)
    want = set(expected_names)
    missing = sorted(want - have)
    extra = sorted(have - want)
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing tensors: " + ", ".join(missing))
        if extra:
            parts.append("unexpected tensors: " + ", ".join(extra))
        raise FormatError(f"{path}: " + "; ".join(parts))


def check_param_shapes(path: str, ck: Checkpoint, shapes) -> None:
    """check_tensor_names, then a FormatError naming the first tensor
    whose stored shape differs from its (name, shape) pair."""
    check_tensor_names(path, ck, [name for name, _ in shapes])
    for name, shape in shapes:
        stored = ck.params[name].shape
        if stored != tuple(shape):
            raise FormatError(f"{path}: tensor {name} is stored with shape "
                              f"{stored}, the config needs {tuple(shape)}")
