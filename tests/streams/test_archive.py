"""Archive round-trip tests: every layout must reproduce the stream
bit-exactly through its :class:`StreamReader`."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, StreamError
from repro.probability import CPT, SparseDistribution
from repro.storage import StorageEnvironment
from repro.streams import (
    DEFAULT_PACK,
    Layout,
    MarkovianStream,
    open_reader,
    single_attribute_space,
    write_stream,
)

LAYOUTS = [Layout.SEPARATED, Layout.CELL, Layout.PACKED]


def random_stream(seed: int, length: int, num_states: int,
                  name: str = "s") -> MarkovianStream:
    """A consistent stream built forward from seeded random rows."""
    rng = random.Random(seed)
    space = single_attribute_space(
        "location", [f"S{i}" for i in range(num_states)])

    def row():
        targets = rng.sample(range(num_states),
                             rng.randint(1, num_states))
        weights = [rng.random() + 1e-3 for _ in targets]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in zip(targets, weights)})

    marginals = [row()]
    cpts = []
    for _ in range(length - 1):
        cpt = CPT({x: row() for x in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream(name, space, marginals, cpts)


def assert_streams_equal(a: MarkovianStream, b: MarkovianStream):
    assert len(a) == len(b)
    for t in range(len(a)):
        assert a.marginal(t) == b.marginal(t), f"marginal mismatch at {t}"
    for t in range(1, len(a)):
        got, want = a.cpt_into(t), b.cpt_into(t)
        assert dict(got.rows()) == dict(want.rows()), f"CPT mismatch at {t}"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(1, 20),
    num_states=st.integers(2, 6),
    layout=st.sampled_from(LAYOUTS),
    pack=st.integers(1, 5),
)
def test_round_trip_any_layout(tmp_path_factory, seed, length, num_states,
                               layout, pack):
    stream = random_stream(seed, length, num_states)
    path = tmp_path_factory.mktemp("arch")
    with StorageEnvironment(str(path)) as env:
        reader = write_stream(env, stream, layout=layout, pack=pack)
        assert reader.length == length
        assert_streams_equal(reader.materialize(), stream)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_reopen_from_metadata_alone(tmp_path, layout):
    """open_reader recovers length/layout/pack from the archive's
    reserved metadata record when the catalog supplies nothing."""
    stream = random_stream(42, 11, 4)
    with StorageEnvironment(str(tmp_path)) as env:
        write_stream(env, stream, layout=layout, pack=3)
        reader = open_reader(env, "s", stream.space)
        assert reader.layout is layout
        assert reader.length == 11
        if layout is Layout.PACKED:
            assert reader.pack == 3
        assert_streams_equal(reader.materialize(), stream)


def test_open_reader_unknown_stream(tmp_path):
    with StorageEnvironment(str(tmp_path)) as env:
        with pytest.raises(CatalogError):
            open_reader(env, "ghost",
                        single_attribute_space("location", ["A"]))


def test_point_access_and_scans_agree(tmp_path):
    stream = random_stream(7, 13, 5)
    with StorageEnvironment(str(tmp_path)) as env:
        for layout in LAYOUTS:
            stream.name = f"s_{layout.value}"
            reader = write_stream(env, stream, layout=layout)
            assert [m for _, m in reader.scan_marginals()] == \
                stream.marginals
            assert [t for t, _ in reader.scan_cpts()] == \
                list(range(1, 13))
            assert reader.marginal(6) == stream.marginal(6)
            with pytest.raises(StreamError):
                reader.marginal(13)
            with pytest.raises(StreamError):
                reader.cpt_into(0)


def test_scan_window_clamps(tmp_path):
    stream = random_stream(9, 10, 3)
    with StorageEnvironment(str(tmp_path)) as env:
        reader = write_stream(env, stream, layout=Layout.PACKED, pack=4)
        window = list(reader.scan_marginals(3, 7))
        assert [t for t, _ in window] == [3, 4, 5, 6]
        assert list(reader.scan_cpts(0, 100))[0][0] == 1


def test_layout_parse_aliases():
    assert Layout.parse("co_clustered") is Layout.CELL
    assert Layout.parse("CELL") is Layout.CELL
    assert Layout.parse(Layout.PACKED) is Layout.PACKED
    assert Layout.CO_CLUSTERED is Layout.CELL
    with pytest.raises(StreamError):
        Layout.parse("btree")


def test_pack_must_be_positive(tmp_path):
    stream = random_stream(1, 4, 3)
    with StorageEnvironment(str(tmp_path)) as env:
        with pytest.raises(StreamError):
            write_stream(env, stream, layout=Layout.PACKED, pack=0)


def test_default_pack_is_sane():
    assert DEFAULT_PACK >= 2


@pytest.mark.parametrize("layout", [Layout.CELL, Layout.PACKED])
def test_scans_decode_only_the_chunk_they_yield(tmp_path, monkeypatch,
                                                layout):
    """A CPT scan of a combined layout never decodes a marginal and a
    marginal scan never decodes a CPT, at the page-read cost of the
    cell scan over the same timesteps."""
    stream = random_stream(3, 17, 4)
    with StorageEnvironment(str(tmp_path)) as env:
        reader = write_stream(env, stream, layout=layout, pack=4)

        def reads(scan, *args):
            before = env.stats.logical_reads
            out = list(scan(*args))
            return env.stats.logical_reads - before, out

        cpt_cost, _ = reads(reader.scan_cells, 1)
        marg_cost, _ = reads(reader.scan_cells, 0)
        calls = []

        def counted(cls):
            raw = vars(cls)["from_bytes"].__func__

            def from_bytes(klass, data, pos=0):
                calls.append(cls.__name__)
                return raw(klass, data, pos)
            monkeypatch.setattr(cls, "from_bytes", classmethod(from_bytes))

        counted(SparseDistribution)
        counted(CPT)
        cost, cpts = reads(reader.scan_cpts)
        assert cost == cpt_cost
        assert calls == ["CPT"] * 16
        assert [c for _, c in cpts] == stream.cpts
        calls.clear()
        cost, marginals = reads(reader.scan_marginals)
        assert cost == marg_cost
        assert calls == ["SparseDistribution"] * 17
        assert [m for _, m in marginals] == stream.marginals
