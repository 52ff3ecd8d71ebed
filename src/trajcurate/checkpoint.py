"""Binary parameter checkpoints.

A TCKP file (magic b"TCKP", version 1) holds one float64 record per tensor in
the record layout of `records`, without kind bytes. Records are written in
sorted name order so identical parameter sets produce byte-identical files.
Scalar metadata (a model's hyper fields, flags such as the encoder's frozen
marker) is stored as one-element tensors under the "meta/" prefix. Loading
rejects any NaN or infinity, in a parameter or in the meta, and a meta record
that holds other than one value. A model writes
`save_checkpoint(path, *model_state(model))` and reads back through `load_model`.
Values that a model's module fixes, such as the encoder's clip geometry, are
written to meta as well, and `load_model` rejects a file that disagrees.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import TypeVar

import numpy as np

from .records import CORRUPT_ERRORS, read_records, write_records

MAGIC = b"TCKP"
VERSION = 1

H = TypeVar("H")
M = TypeVar("M")


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray],
                    meta: dict[str, float] | None = None) -> None:
    arrays = {name: np.asarray(arr, dtype="<f8", order="C") for name, arr in params.items()}
    for key, value in (meta or {}).items():
        arrays[f"meta/{key}"] = np.asarray([float(value)], dtype="<f8")
    write_records(path, MAGIC, VERSION,
                  [(name, None, arrays[name].shape, arrays[name]) for name in sorted(arrays)])


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Read one TCKP file; truncated or corrupt content, any value that is
    not finite and a meta record of other than one value raise CheckpointError."""
    raw = Path(path).read_bytes()
    params: dict[str, np.ndarray] = {}
    meta: dict[str, float] = {}
    try:
        for name, _, dims, payload in read_records(raw, MAGIC, VERSION, False):
            arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"record {name!r} holds a value that is not finite")
            if name.startswith("meta/"):
                if arr.size != 1:
                    raise ValueError(f"meta record {name!r} holds {arr.size} values, not one")
                meta[name[len("meta/"):]] = arr.item()
            else:
                params[name] = arr
    except CORRUPT_ERRORS as exc:
        raise CheckpointError(f"{path}: truncated or corrupt ({exc!r})") from exc
    return params, meta


def hyper_from_meta(cls: type[H], meta: dict[str, float]) -> H:
    """Rebuild the hyper dataclass `cls` from checkpoint meta; every field
    must be present and integral, and the values must pass `cls`'s checks."""
    values = {}
    for f in fields(cls):
        value = meta.get(f.name)
        if value is None or not float(value).is_integer():
            raise CheckpointError(f"meta field {f.name!r} missing or not an integer: {value!r}")
        values[f.name] = int(value)
    try:
        return cls(**values)
    except ValueError as exc:
        raise CheckpointError(f"meta: {exc}") from exc


def model_state(model, arrays=None, meta=None) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """What `save_checkpoint` writes for `model`, with `arrays` and `meta` added."""
    return {**model.store.arrays(), **(arrays or {})}, {**asdict(model.hyper), **(meta or {})}


def load_model(cls: type[M], hyper_cls: type, path, arrays: dict[str, np.ndarray],
               meta: dict[str, float], fixed: dict[str, float] | None = None,
               extra: tuple[str, ...] = ()) -> tuple[M, dict, dict]:
    """The model, meta and `extra` arrays of `load_checkpoint(path)`'s result;
    meta that lacks a `fixed` value or disagrees with it, and a missing,
    unknown or misshapen array, raise CheckpointError."""
    for name, value in (fixed or {}).items():
        if meta.get(name) != value:
            raise CheckpointError(f"{path}: meta field {name!r} is {meta.get(name)!r}, not {value}")
    model = cls(hyper_from_meta(hyper_cls, meta))
    try:
        extras = {name: arrays.pop(name) for name in extra}
        model.store.load(arrays)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: arrays do not match the meta ({exc})") from exc
    return model, meta, extras
