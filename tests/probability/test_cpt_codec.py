"""The CPT record codec and the array representation behind it.

``CPT.from_bytes`` decodes the varint record straight into sorted
``(src, dst, p)`` arrays. These tests hold it to a dict-based reference
decoder built on ``unpack_pairs`` (the record's documented pair-list
shape), pin ``to_bytes`` to golden byte strings, and feed it truncated
and corrupt records, in the style of the key-codec adversarial tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, StreamError
from repro.probability import CPT
from repro.storage.record import decode_uvarint, encode_uvarint, unpack_pairs


# ---------------------------------------------------------------------------
# Reference: the record decoded into plain dicts
# ---------------------------------------------------------------------------

def reference_rows(data: bytes):
    """``{src: {dst: p}}`` of a record, nonzero weights only."""
    count, pos = decode_uvarint(data, 0)
    rows = {}
    for _ in range(count):
        src, pos = decode_uvarint(data, pos)
        pairs, pos = unpack_pairs(data, pos)
        row = {dst: p for dst, p in pairs if p > 0.0}
        if row:
            rows[src] = row
    return rows


def rows_of(cpt: CPT):
    return {src: dict(row.items()) for src, row in cpt.rows()}


#: Mostly one- and two-byte varint ids, some longer.
ids = st.one_of(st.integers(0, 400), st.integers(0, 2**40))
weights = st.floats(0.0, 1.0, allow_nan=False)
tables = st.dictionaries(ids, st.dictionaries(ids, weights, max_size=6),
                         max_size=6)


# ---------------------------------------------------------------------------
# Round trips against the reference
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(table=tables)
def test_array_decode_equals_dict_reference_row_for_row(table):
    data = CPT(table).to_bytes()
    decoded = CPT.from_bytes(data)
    want = reference_rows(data)
    assert rows_of(decoded) == want
    assert want == {s: {d: p for d, p in row.items() if p > 0.0}
                    for s, row in table.items()
                    if any(p > 0.0 for p in row.values())}
    # The arrays themselves: sorted by (src, dst), positive weights.
    keys = list(zip(decoded.src.tolist(), decoded.dst.tolist()))
    assert keys == sorted(set(keys))
    assert np.all(decoded.p > 0.0)
    assert decoded.src.dtype == decoded.dst.dtype == np.int64
    assert decoded.p.dtype == np.float64
    assert decoded.to_bytes() == data


#: ``to_bytes`` output of the dict-backed CPT this array form replaced;
#: the archive's record format must not change under it.
GOLDEN = [
    (CPT(), "00"),
    (CPT({0: {0: 0.7, 1: 0.3}, 1: {1: 0.6, 2: 0.4}, 2: {2: 0.5, 0: 0.5}}),
     "03000200666666666666e63f01333333333333d33f010201333333333333e33f02"
     "9a9999999999d93f020200000000000000e03f02000000000000e03f"),
    (CPT({127: {128: 1.0}, 300: {351: 0.25, 5: 0.75}}),
     "027f018001000000000000f03fac020205000000000000e83fdf02000000000000"
     "d03f"),
    (CPT({4: {1: 0.0, 2: 1.0}, 9: {3: 0.0}}), "01040102000000000000f03f"),
]


@pytest.mark.parametrize("cpt,hex_bytes", GOLDEN)
def test_to_bytes_matches_golden_records(cpt, hex_bytes):
    assert cpt.to_bytes().hex() == hex_bytes
    assert CPT.from_bytes(bytes.fromhex(hex_bytes)) == cpt


def test_decode_starts_at_offset_and_ignores_trailing_bytes():
    cpt = GOLDEN[1][0]
    assert CPT.from_bytes(b"\xaa\xbb" + cpt.to_bytes() + b"\x01", 2) == cpt


# ---------------------------------------------------------------------------
# Adversarial records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cpt,_", GOLDEN)
def test_every_truncation_raises_storage_error(cpt, _):
    data = cpt.to_bytes()
    for n in range(len(data)):
        with pytest.raises(StorageError):
            CPT.from_bytes(data[:n])


def test_truncated_weight_and_dangling_varint_raise_storage_error():
    # One row, one pair, only 3 of the 8 weight bytes.
    with pytest.raises(StorageError):
        CPT.from_bytes(b"\x01\x00\x01\x00\x00\x00\x00")
    # A source id whose continuation bit promises another byte.
    with pytest.raises(StorageError):
        CPT.from_bytes(b"\x01\x80")
    # More rows declared than present.
    with pytest.raises(StorageError):
        CPT.from_bytes(b"\x05" + CPT({0: {0: 1.0}}).to_bytes()[1:])


def record(rows):
    """Hand-built record from ``[(src, [(dst, p), ...]), ...]`` in the
    given order, so tests can write what ``to_bytes`` never would."""
    out = [encode_uvarint(len(rows))]
    for src, pairs in rows:
        out.append(encode_uvarint(src))
        out.append(encode_uvarint(len(pairs)))
        for dst, p in pairs:
            out.append(encode_uvarint(dst))
            out.append(np.float64(p).tobytes())
    return b"".join(out)


def test_negative_weight_raises_stream_error():
    with pytest.raises(StreamError, match="negative"):
        CPT.from_bytes(record([(0, [(1, 0.5), (2, -0.5)])]))


def test_zero_weights_and_empty_rows_are_dropped():
    cpt = CPT.from_bytes(record([(0, [(1, 0.0), (2, 1.0)]), (3, []),
                                 (4, [(5, 0.0)])]))
    assert rows_of(cpt) == {0: {2: 1.0}}
    assert cpt.num_entries() == 1
    assert len(cpt) == 1


@pytest.mark.parametrize("rows", [
    [(2, [(0, 1.0)]), (1, [(0, 1.0)])],          # sources descending
    [(1, [(0, 1.0)]), (1, [(2, 1.0)])],          # source repeated
    [(0, [(3, 0.5), (1, 0.5)])],                 # destinations descending
    [(0, [(1, 0.5), (1, 0.5)])],                 # destination repeated
])
def test_out_of_order_records_raise_storage_error(rows):
    with pytest.raises(StorageError, match="order"):
        CPT.from_bytes(record(rows))


# ---------------------------------------------------------------------------
# Array operations on small and large ids
# ---------------------------------------------------------------------------

def path_sum(a, b):
    out = {}
    for x, row in rows_of(a).items():
        acc = {}
        for y, p in row.items():
            for z, q in rows_of(b).get(y, {}).items():
                acc[z] = acc.get(z, 0.0) + p * q
        if acc:
            out[x] = acc
    return out


narrow_tables = st.dictionaries(
    st.integers(0, 40),
    st.dictionaries(st.integers(0, 40), st.floats(1e-3, 1.0), max_size=6),
    max_size=6)


@settings(max_examples=60, deadline=None)
@given(a=narrow_tables, b=narrow_tables, shift=st.sampled_from([0, 1000]))
def test_compose_matches_path_sum_on_narrow_and_wide_ids(a, b, shift):
    """The row join equals the path sum and keeps the arrays canonical,
    on small ids and on ids shifted past them."""
    def shifted(table):
        return CPT({s + shift: {d + shift: p for d, p in row.items()}
                    for s, row in table.items()})

    got = shifted(a).compose(shifted(b))
    want = path_sum(shifted(a), shifted(b))
    assert set(rows_of(got)) == set(want)
    for x, row in want.items():
        assert set(got.row(x).support()) == set(row)
        for z, p in row.items():
            assert got.row(x).prob(z) == pytest.approx(p, rel=1e-12)
    keys = list(zip(got.src.tolist(), got.dst.tolist()))
    assert keys == sorted(set(keys))
    assert np.all(got.p > 0.0)


def test_masks_return_canonical_subsets():
    cpt = CPT({0: {0: 0.5, 7: 0.5}, 7: {0: 1.0}, 9: {7: 1.0}})
    assert rows_of(cpt.mask_destinations({7})) == {0: {7: 0.5}, 9: {7: 1.0}}
    assert rows_of(cpt.mask_sources([0, 9])) == {0: {0: 0.5, 7: 0.5},
                                                 9: {7: 1.0}}
    assert cpt.mask_sources(range(10)) is cpt
    assert not cpt.mask_destinations(set())
