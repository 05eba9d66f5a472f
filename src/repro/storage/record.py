"""Length-prefixed value serialization.

B+ tree values are opaque byte strings; the layers above store composite
records in them (a marginal next to its CPT in the co-clustered layout,
sparse probability vectors in index entries). This module provides the
shared low-level codecs:

- unsigned LEB128 varints (small ints — counts, state ids — in 1 byte);
- length-prefixed chunk framing (concatenate independently decodable
  byte strings);
- packed ``(uvarint id, float64)`` pair lists, the wire shape of a
  sparse distribution;
- grouped pair lists (a row count, then a row id and a pair list per
  row), the wire shape of a sparse matrix such as a CPT.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

from ..errors import StorageError

_F64 = struct.Struct("<d")
#: A pair whose id fits in one varint byte (below 0x80): that byte, then
#: the weight. Most ids are small, so the pair codecs take this path.
_BYTE_F64 = struct.Struct("<Bd")
_ONE_BYTE = tuple(bytes((i,)) for i in range(0x80))


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

def encode_uvarint(value: int) -> bytes:
    """Unsigned LEB128."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise StorageError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, pos: int = 0) -> Tuple[int, int]:
    """Returns ``(value, next_pos)``."""
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StorageError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise StorageError("uvarint overflow")


# ----------------------------------------------------------------------
# Chunk framing
# ----------------------------------------------------------------------

def pack_chunks(chunks: Sequence[bytes]) -> bytes:
    """Frame several byte strings into one: count, then len+payload each."""
    out = [encode_uvarint(len(chunks))]
    for chunk in chunks:
        out.append(encode_uvarint(len(chunk)))
        out.append(chunk)
    return b"".join(out)


def unpack_chunks(data: bytes, pos: int = 0) -> Tuple[List[bytes], int]:
    """Invert :func:`pack_chunks`; returns ``(chunks, next_pos)``."""
    count, pos = decode_uvarint(data, pos)
    chunks: List[bytes] = []
    for _ in range(count):
        length, pos = decode_uvarint(data, pos)
        if pos + length > len(data):
            raise StorageError("truncated chunk")
        chunks.append(data[pos:pos + length])
        pos += length
    return chunks, pos


# ----------------------------------------------------------------------
# Sparse (id, weight) vectors
# ----------------------------------------------------------------------

def pack_pairs(pairs: Iterable[Tuple[int, float]]) -> bytes:
    """Pack ``(id, weight)`` pairs: count, then uvarint id + float64 each."""
    items = list(pairs)
    out = [encode_uvarint(len(items))]
    for key, weight in items:
        if 0 <= key < 0x80:
            out.append(_BYTE_F64.pack(key, weight))
        else:
            out.append(encode_uvarint(key))
            out.append(_F64.pack(weight))
    return b"".join(out)


def unpack_pairs(data: bytes, pos: int = 0) -> Tuple[List[Tuple[int, float]], int]:
    """Invert :func:`pack_pairs`; returns ``(pairs, next_pos)``."""
    count, pos = decode_uvarint(data, pos)
    pairs: List[Tuple[int, float]] = []
    for _ in range(count):
        if pos + 9 <= len(data) and data[pos] < 0x80:
            pairs.append(_BYTE_F64.unpack_from(data, pos))
            pos += 9
            continue
        key, pos = decode_uvarint(data, pos)
        if pos + 8 > len(data):
            raise StorageError("truncated pair list")
        pairs.append((key, _F64.unpack_from(data, pos)[0]))
        pos += 8
    return pairs, pos


# ----------------------------------------------------------------------
# Grouped pair lists (sparse matrices)
# ----------------------------------------------------------------------

def pack_pair_rows(rows: Sequence[int], keys: Sequence[int],
                   weights: Sequence[float]) -> bytes:
    """Pack flat ``(row, key, weight)`` triples, sorted by row, as a
    uvarint row count and then, per row, the uvarint row id and the
    row's :func:`pack_pairs` list."""
    parts = []
    lo = 0
    while lo < len(rows):
        hi = bisect_right(rows, rows[lo], lo)
        parts.append(encode_uvarint(rows[lo]))
        parts.append(pack_pairs(zip(keys[lo:hi], weights[lo:hi])))
        lo = hi
    return encode_uvarint(len(parts) // 2) + b"".join(parts)


def unpack_pair_rows(
    data: bytes, pos: int = 0
) -> Tuple[List[int], List[int], List[float], int]:
    """Invert :func:`pack_pair_rows` into flat ``(rows, keys, weights,
    next_pos)`` lists, one entry per pair, ready to become arrays.

    Row ids, and keys within a row, must be strictly increasing, as
    :func:`pack_pair_rows` writes them from sorted input; a record out
    of that order, or truncated, raises :class:`StorageError`. This is
    the hot decode of every stored CPT, so it is one loop: one-byte ids
    (the common case) skip :func:`decode_uvarint`."""
    rows: List[int] = []
    keys: List[int] = []
    weights: List[float] = []
    end = len(data)
    unpack_pair, unpack_f64 = _BYTE_F64.unpack_from, _F64.unpack_from
    last_row = -1
    count, pos = decode_uvarint(data, pos)
    for _ in range(count):
        row, pos = decode_uvarint(data, pos)
        if row <= last_row:
            raise StorageError("pair rows out of order")
        last_row = row
        size, pos = decode_uvarint(data, pos)
        last_key = -1
        for _ in range(size):
            if pos + 9 <= end and data[pos] < 0x80:
                key, weight = unpack_pair(data, pos)
                pos += 9
            else:
                key, pos = decode_uvarint(data, pos)
                if pos + 8 > end:
                    raise StorageError("truncated pair list")
                (weight,) = unpack_f64(data, pos)
                pos += 8
            if key <= last_key:
                raise StorageError("pair list keys out of order")
            last_key = key
            rows.append(row)
            keys.append(key)
            weights.append(weight)
    return rows, keys, weights, pos
