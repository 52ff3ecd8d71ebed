"""Binary parameter checkpoints.

Layout: magic b"TCKP", version u16 little-endian, then one record per tensor
in the record layout shared with NTRJ episodes (see `dataset`), without the
kind byte: name length u32, UTF-8 name, rank u32, dims u64[rank], float64
payload (row-major, little-endian). Records run to EOF and are written in
sorted name order so identical parameter sets produce byte-identical files.
Scalar metadata (a model's hyper fields, flags such as the encoder's frozen
marker) is stored as one-element tensors under the "meta/" prefix.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import fields
from pathlib import Path
from typing import TypeVar

import numpy as np

from .dataset import CORRUPT_ERRORS, check_header, read_array, read_name, write_array, write_name

MAGIC = b"TCKP"
VERSION = 1

H = TypeVar("H")


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray],
                    meta: dict[str, float] | None = None) -> None:
    records = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
    for key, value in (meta or {}).items():
        records[f"meta/{key}"] = np.asarray([float(value)])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        for name in sorted(records):
            arr = records[name]
            write_name(f, name)
            write_array(f, arr.shape, arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Read one TCKP file; truncated or corrupt content raises CheckpointError."""
    raw = Path(path).read_bytes()
    params: dict[str, np.ndarray] = {}
    meta: dict[str, float] = {}
    try:
        check_header(raw, MAGIC, VERSION)
        pos = 6
        while pos < len(raw):
            name, pos = read_name(raw, pos)
            dims, payload, pos = read_array(raw, pos, 8)
            arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
            if name.startswith("meta/"):
                meta[name[len("meta/"):]] = float(arr.reshape(-1)[0])
            else:
                params[name] = arr
    except CORRUPT_ERRORS as exc:
        raise CheckpointError(f"{path}: truncated or corrupt ({exc!r})") from exc
    return params, meta


def hyper_from_meta(cls: type[H], meta: dict[str, float]) -> H:
    """Rebuild the hyper dataclass `cls` from checkpoint meta; every field
    must be present with a positive integral value, and `dim` must split
    evenly over `heads`."""
    values = {}
    for f in fields(cls):
        value = meta.get(f.name)
        if value is None or not float(value).is_integer() or value < 1:
            raise CheckpointError(
                f"meta field {f.name!r} missing or not a positive integer: {value!r}")
        values[f.name] = int(value)
    if values["dim"] % values["heads"]:
        raise CheckpointError(
            f"meta dim {values['dim']} is not divisible by heads {values['heads']}")
    return cls(**values)


@contextlib.contextmanager
def arrays_must_match(path):
    """Turn a model's rejection of a checkpoint's arrays (a missing, unknown
    or misshapen one) into CheckpointError."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: arrays do not match the meta ({exc})") from exc
