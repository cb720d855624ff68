"""Checkpoints: one trained model's tensors and hyperparameters.

A checkpoint is an uncompressed ``.npz``, written and read by the same
``data.write_npz`` and ``data.read_npz`` as ``split.npz``. Its member
``meta`` holds, as uint8, the UTF-8 JSON ``{"format", "model_type",
"hyperparams"}``; one float32 member per tensor follows, in
``model.TENSOR_FIELDS`` or ``scoring.FLAT_TENSOR_FIELDS`` order. Reading
checks every member's dtype, shape and CRC-32, the hyperparameters, and that
every tensor value is finite; every failure is one ``CheckpointError`` naming
the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import MODEL_TYPES, CheckpointError, Hyperparams
from .data import read_npz, write_npz
from .scoring import FLAT_TENSOR_FIELDS, FlatParams

CHECKPOINT_FORMAT = "gbrec-checkpoint-npz"
RETRAIN = "write this checkpoint again with gbrec train"
F32 = np.dtype("<f4")


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
    if model_type not in MODEL_TYPES:
        raise ValueError(f"unknown model type {model_type!r}")
    meta = {"format": CHECKPOINT_FORMAT, "model_type": model_type, "hyperparams": hp.to_dict()}
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(), np.uint8)}
    for name in _layout(model_type)[0]:
        arrays[name] = np.ascontiguousarray(getattr(params, name), dtype=F32)
    write_npz(path, arrays)


def _has_field_type(value, template) -> bool:
    """JSON ``value`` fits the type of a ``Hyperparams`` default (ints pass as floats)."""
    if isinstance(template, bool) or isinstance(value, bool):
        return isinstance(template, bool) and isinstance(value, bool)
    if isinstance(template, tuple):
        return isinstance(value, list) and all(isinstance(k, int) and not isinstance(k, bool) for k in value)
    if isinstance(template, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(template))


def _checked_meta(raw: np.ndarray) -> tuple[str, Hyperparams]:
    """The model type and the hyperparameters, checked for every field's
    presence and type and for ``validate()``; every problem is one
    CheckpointError. A key that is no field, such as a field since removed
    that older files still hold, is ignored."""
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"meta is not JSON ({exc})") from None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"meta does not name the format {CHECKPOINT_FORMAT!r}")
    model_type, values = meta.get("model_type"), meta.get("hyperparams")
    if model_type not in MODEL_TYPES:
        raise CheckpointError(f"unknown model type {model_type!r}")
    if not isinstance(values, dict):
        raise CheckpointError("bad hyperparameters: not a JSON object")
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
    if problems:
        raise CheckpointError("bad hyperparameters: " + "; ".join(problems))
    return model_type, hp


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at ``path``. The embedding tables are ``(n, dim)``;
    GBGCN's cross-view weights are ``(width, width)`` and its biases
    ``(width,)``, with ``width = (num_layers + 1) * dim``."""
    with read_npz(path, CheckpointError, RETRAIN) as read:
        model_type, hp = _checked_meta(read("meta", np.dtype(np.uint8)))
        fields, params_type = _layout(model_type)
        width = (hp.num_layers + 1) * hp.dim
        tensors = {}
        for name in fields:
            tail = (hp.dim,) if name.endswith("_emb") else (width,) if name.startswith("w_") else ()
            tensors[name] = read(name, F32, tail)
            n = tensors[name].shape[0]
            if not name.endswith("_emb") and n != width:
                raise CheckpointError(f"{name} is {n} long, expected (num_layers + 1) * dim = {width}")
            if not np.isfinite(tensors[name]).all():  # a NaN score would rank first, silently
                raise CheckpointError(f"{name} holds a non-finite value")
    return Checkpoint(model_type, params_type(**tensors), hp)
