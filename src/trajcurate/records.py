"""The binary record layout shared by NTRJ episodes and TCKP checkpoints.

A file is a 4-byte magic, a u16 version, then records to EOF. A record is
name length u32, UTF-8 name, kind u8, rank u32, dims u64[rank] and the
row-major payload. TCKP records have no kind byte; their payload is float64.
All integers are little-endian. The payload's length is not stored: it is
the product of the dims times the item size of the record's kind.
"""

from __future__ import annotations

import struct
from pathlib import Path

# record kinds, the byte between the name and the rank
U8, F64, JSON = 0, 1, 3
_ITEM_SIZE = {U8: 1, F64: 8, JSON: 1}

# Errors that parsing malformed bytes can raise: struct reads past the end,
# unknown record kinds or missing keys, bad headers and undecodable text or
# JSON (all ValueErrors), impossible reshapes, fields of the wrong type, and
# JSON infinities cast to int.
CORRUPT_ERRORS = (struct.error, LookupError, ValueError, TypeError, OverflowError)


def write_records(path, magic: bytes, version: int, records) -> None:
    """Write `(name, kind, dims, payload)` records to `path` in the given
    order. `kind` is None for a file without kind bytes, and `payload` is any
    C-contiguous buffer, written without a copy. Missing parent directories
    are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<H", version))
        for name, kind, dims, payload in records:
            encoded = name.encode()
            f.write(struct.pack("<I", len(encoded)) + encoded)
            if kind is not None:
                f.write(struct.pack("<B", kind))
            f.write(struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
            f.write(payload)


def read_records(raw: bytes, magic: bytes, version: int,
                 kinded: bool) -> list[tuple[str, int | None, tuple[int, ...], memoryview]]:
    """The `(name, kind, dims, payload)` records of `raw`, in file order; kind
    is None when the records are not `kinded`, and their payload is float64.
    Payloads are views of `raw`. Bytes that do not follow the layout, or a
    repeated record name, raise one of CORRUPT_ERRORS."""
    if raw[:4] != magic:
        raise ValueError(f"bad magic {raw[:4]!r}")
    if len(raw) < 6:
        raise ValueError("truncated before the version")
    (found,) = struct.unpack_from("<H", raw, 4)
    if found != version:
        raise ValueError(f"unsupported version {found}")
    records, seen, view = [], set(), memoryview(raw)
    pos = 6
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if len(raw) - pos < name_len:
            raise struct.error("short name")
        name = raw[pos:pos + name_len].decode()
        if name in seen:
            raise ValueError(f"repeated record name {name!r}")
        seen.add(name)
        pos += name_len
        kind = None
        if kinded:
            (kind,) = struct.unpack_from("<B", raw, pos)
            pos += 1
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if 8 * rank > len(raw) - pos:
            raise struct.error("short dims")
        dims = struct.unpack_from(f"<{rank}Q", raw, pos)
        pos += 8 * rank
        remaining = len(raw) - pos
        # clamped as it grows, so corrupt dims cannot overflow or build a
        # huge integer; the clamp never changes whether it fits
        nbytes = _ITEM_SIZE[F64 if kind is None else kind]
        for d in dims:
            nbytes = min(nbytes * d, remaining + 1)
        if nbytes > remaining:
            raise struct.error(f"dims {dims} need more than the {remaining} bytes left")
        records.append((name, kind, dims, view[pos:pos + nbytes]))
        pos += nbytes
    return records
