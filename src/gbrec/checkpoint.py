"""Binary checkpoints: one trained model's tensors and hyperparameters.

Layout, little-endian: the magic ``GBGC``; six uint32s (format version, model
type code, users P, items Q, embedding width d, layers L, which is 0 for the
flat models); two uint32s (the length of the hyperparameter JSON, and header
flags, always 0); the hyperparameters as compact sorted JSON; then every
tensor of the model type, in ``model.TENSOR_FIELDS`` or
``scoring.FLAT_TENSOR_FIELDS`` order, as float32. Reading checks every field,
and every failure is one ``CheckpointError`` naming the file.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import CheckpointError, Hyperparams
from .scoring import FLAT_TENSOR_FIELDS, FlatParams

MODEL_TYPE_CODES = {"gbgcn": 0, "gbmf": 1, "mf": 2}
CODE_TO_MODEL_TYPE = {v: k for k, v in MODEL_TYPE_CODES.items()}
CHECKPOINT_MAGIC = b"GBGC"
CHECKPOINT_VERSION = 1


def _layout(model_type: str) -> tuple[tuple[str, ...], type]:
    """``model_type``'s tensor fields in file order, and their class; only gbgcn loads ``model``."""
    if model_type == "gbgcn":
        from .model import TENSOR_FIELDS, ModelParams

        return TENSOR_FIELDS, ModelParams
    return FLAT_TENSOR_FIELDS, FlatParams


@dataclass
class Checkpoint:
    model_type: str
    params: object
    hp: Hyperparams


def save_checkpoint(path: str, model_type: str, params, hp: Hyperparams) -> None:
    if model_type not in MODEL_TYPE_CODES:
        raise ValueError(f"unknown model type {model_type!r}")
    P, d = params.user_emb.shape
    Q = params.item_emb.shape[0]
    L = hp.num_layers if model_type == "gbgcn" else 0
    hp_json = json.dumps(hp.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<IIIIII", CHECKPOINT_VERSION, MODEL_TYPE_CODES[model_type], P, Q, d, L)
    buf += struct.pack("<II", len(hp_json), 0)
    buf += hp_json
    for name in _layout(model_type)[0]:
        buf += np.ascontiguousarray(getattr(params, name), dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def _has_field_type(value, template) -> bool:
    """JSON ``value`` fits the type of a ``Hyperparams`` default (ints pass as floats)."""
    if isinstance(template, bool) or isinstance(value, bool):
        return isinstance(template, bool) and isinstance(value, bool)
    if isinstance(template, tuple):
        return isinstance(value, list) and all(isinstance(k, int) and not isinstance(k, bool) for k in value)
    if isinstance(template, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(template))


def _checked_hyperparams(path: str, raw: bytes, model_type: str, d: int, L: int) -> Hyperparams:
    """The stored hyperparameters, checked for every field's presence and type,
    for ``validate()`` and against the header's ``d`` and ``L``; every problem is
    one CheckpointError. A key that is no field, such as a field since removed
    that older files still hold, is ignored."""
    try:
        values = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: hyperparameters are not JSON ({exc})") from None
    if not isinstance(values, dict):
        raise CheckpointError(f"{path}: hyperparameters are not a JSON object")
    defaults = vars(Hyperparams())
    missing = [name for name in defaults if name not in values]
    problems = [f"missing {', '.join(missing)}"] if missing else []
    problems += [
        f"{name} must be {type(defaults[name]).__name__}, got {value!r}"
        for name, value in values.items()
        if name in defaults and not _has_field_type(value, defaults[name])
    ]
    if not problems:
        hp = Hyperparams.from_dict(values)
        problems = hp.validate()
        if hp.dim != d:
            problems.append(f"dim {hp.dim} does not match the header's d = {d}")
        if model_type == "gbgcn" and hp.num_layers != L:
            problems.append(f"num_layers {hp.num_layers} does not match the header's L = {L}")
    if problems:
        raise CheckpointError(f"{path}: bad hyperparameters: " + "; ".join(problems))
    return hp


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if n < 0 or off + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = blob[off : off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version, code, P, Q, d, L = struct.unpack("<IIIIII", take(24))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if code not in CODE_TO_MODEL_TYPE:
        raise CheckpointError(f"{path}: unknown model type code {code}")
    model_type = CODE_TO_MODEL_TYPE[code]
    hp_len, flags = struct.unpack("<II", take(8))
    if flags:
        raise CheckpointError(f"{path}: unsupported header flags {flags:#x}")
    hp = _checked_hyperparams(path, take(hp_len), model_type, d, L)

    width = (L + 1) * d
    shapes = {"user_emb": (P, d), "item_emb": (Q, d)}
    fields, params_type = _layout(model_type)
    tensors = {}
    for name in fields:
        shape = shapes.get(name, (width,) if name.startswith("b_") else (width, width))
        # sized in exact integers: an int64 product of the header's sizes can wrap negative
        tensors[name] = np.ascontiguousarray(np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape))
        if not np.isfinite(tensors[name]).all():  # a NaN score would rank first, silently
            raise CheckpointError(f"{path}: {name} holds a non-finite value")
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return Checkpoint(model_type, params_type(**tensors), hp)
