"""The shared record codecs: varints, pair lists and grouped pair lists.

Ids below 0x80 take a one-byte fast path in every codec; these tests
pin that it writes and reads the same bytes as the general varint path,
on both sides of the boundary."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.record import (
    decode_uvarint,
    encode_uvarint,
    pack_pair_rows,
    pack_pairs,
    unpack_pair_rows,
    unpack_pairs,
)

BOUNDARY_IDS = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 2**40]


def slow_uvarint(value):
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


@pytest.mark.parametrize("value", BOUNDARY_IDS)
def test_uvarint_round_trips_across_the_one_byte_boundary(value):
    data = encode_uvarint(value)
    assert data == slow_uvarint(value)
    assert decode_uvarint(b"\xff" + data, 1) == (value, 1 + len(data))


def test_uvarint_rejects_negative_and_truncated():
    with pytest.raises(StorageError):
        encode_uvarint(-1)
    with pytest.raises(StorageError):
        decode_uvarint(b"\x80")
    with pytest.raises(StorageError):
        decode_uvarint(b"")


def test_pair_list_bytes_match_the_general_encoding():
    pairs = [(k, 0.5) for k in BOUNDARY_IDS]
    want = slow_uvarint(len(pairs)) + b"".join(
        slow_uvarint(k) + struct.pack("<d", w) for k, w in pairs)
    assert pack_pairs(pairs) == want
    assert unpack_pairs(want) == (pairs, len(want))


def test_every_truncated_pair_list_raises_storage_error():
    data = pack_pairs([(5, 0.25), (300, 0.75)])
    for n in range(len(data)):
        with pytest.raises(StorageError):
            unpack_pairs(data[:n])


rows_strategy = st.dictionaries(
    st.integers(0, 2**20),
    st.dictionaries(st.integers(0, 2**20), st.floats(allow_nan=False),
                    min_size=1, max_size=5),
    max_size=6)


def flatten(table):
    flat = [(r, k, w) for r in sorted(table) for k, w in sorted(table[r].items())]
    return ([r for r, _, _ in flat], [k for _, k, _ in flat],
            [w for _, _, w in flat])


@settings(max_examples=100, deadline=None)
@given(table=rows_strategy)
def test_pair_rows_round_trip(table):
    rows, keys, weights = flatten(table)
    data = pack_pair_rows(rows, keys, weights)
    # Each row is a row id followed by an ordinary pair list.
    want = slow_uvarint(len(table)) + b"".join(
        slow_uvarint(r) + pack_pairs(sorted(table[r].items()))
        for r in sorted(table))
    assert data == want
    assert unpack_pair_rows(b"\x00" + data + b"\x01", 1) == (
        rows, keys, weights, 1 + len(data))


def test_every_truncated_pair_rows_record_raises_storage_error():
    data = pack_pair_rows([1, 1, 200], [3, 400, 7], [0.5, 0.5, 1.0])
    for n in range(len(data)):
        with pytest.raises(StorageError):
            unpack_pair_rows(data[:n])


@pytest.mark.parametrize("record", [
    # rows 2 then 1
    b"\x02" + b"\x02" + pack_pairs([(0, 1.0)]) + b"\x01" + pack_pairs([(0, 1.0)]),
    # keys 300 then 5 in one row
    b"\x01" + b"\x00" + pack_pairs([(300, 0.5), (5, 0.5)]),
    # key repeated
    b"\x01" + b"\x00" + pack_pairs([(5, 0.5), (5, 0.5)]),
])
def test_out_of_order_pair_rows_raise_storage_error(record):
    with pytest.raises(StorageError, match="order"):
        unpack_pair_rows(record)
