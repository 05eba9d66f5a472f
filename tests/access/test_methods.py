"""Cross-checks of the access methods (Algorithms 1, 2, 3, 5) through
the Caldera facade: the exact methods agree on every emitted timestep,
across every archive layout."""

import pytest

from repro.access import merge_intervals
from repro.core import Caldera
from repro.streams import ENTERED_ROOM_QUERY, Layout, synthetic_stream

LAYOUTS = (Layout.SEPARATED, Layout.CELL, Layout.PACKED)
KLEENE_QUERY = "location=Door -> (!location=Room)* location=Room"


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db")
    database = Caldera(str(path))
    stream = synthetic_stream("syn", num_snippets=20, density=0.3,
                              match_rate=0.8, seed=19)
    for layout in LAYOUTS:
        stream.name = f"syn_{layout.value}"
        database.archive(stream, layout=layout)
    yield database
    database.close()


@pytest.mark.parametrize("layout", [lo.value for lo in LAYOUTS])
def test_naive_and_btree_agree_on_emitted_timesteps(db, layout):
    stream = f"syn_{layout}"
    text = ENTERED_ROOM_QUERY
    naive = dict(db.query(stream, text, method="naive").signal)
    btree = db.query(stream, text, method="btree").signal
    assert btree, "the B+tree method emitted nothing"
    for t, p in btree:
        assert naive.get(t, 0.0) == pytest.approx(p, abs=1e-9)
    # Alg 2 may skip timesteps it proves irrelevant, but never a
    # nonzero one.
    emitted = {t for t, _ in btree}
    for t, p in naive.items():
        if p > 1e-12:
            assert t in emitted, f"btree dropped nonzero timestep {t}"


@pytest.mark.parametrize("anchors,n,want", [
    ([], 2, []),
    ([0, 1, 2], 2, [(0, 3)]),                    # each shares a step
    ([0, 2, 4], 2, [(0, 1), (2, 3), (4, 5)]),    # abutting: kept apart
    ([0, 2], 3, [(0, 4)]),                       # overlap at t=2
    ([0, 3], 3, [(0, 2), (3, 5)]),               # abutting
    ([0, 1, 5], 1, [(0, 0), (1, 1), (5, 5)]),    # one-link intervals
])
def test_merge_intervals_joins_only_overlapping_candidates(anchors, n, want):
    """§3.1 merges overlapping candidate intervals; joining abutting
    ones would run Reg across the CPT between them for nothing."""
    assert merge_intervals(anchors, n) == want


def test_btree_rejects_variable_length_queries(db):
    """Alg 2 covers fixed-length queries only; Kleene loops must route
    to Alg 4/5 (and the naive fallback stays exact)."""
    from repro.errors import QueryError

    with pytest.raises(QueryError, match="fixed-length"):
        db.query("syn_separated", KLEENE_QUERY, method="btree")
    naive = db.query("syn_separated", KLEENE_QUERY, method="naive")
    assert naive.signal  # exact evaluation still works


def test_layouts_agree_with_each_other(db):
    signals = []
    for layout in LAYOUTS:
        result = db.query(f"syn_{layout.value}", ENTERED_ROOM_QUERY,
                          method="naive")
        signals.append(dict(result.signal))
    for other in signals[1:]:
        assert set(other) == set(signals[0])
        for t, p in signals[0].items():
            assert other[t] == pytest.approx(p, abs=1e-9)


def test_topk_returns_highest_peaks(db):
    full = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                         method="naive").signal)
    top = db.query("syn_separated", ENTERED_ROOM_QUERY, method="topk",
                   k=3).signal
    assert len(top) <= 3
    # Emitted in time order; the *set* must be the k highest peaks.
    assert [t for t, _ in top] == sorted(t for t, _ in top)
    probs = sorted((p for _, p in top), reverse=True)
    best = sorted(full.values(), reverse=True)[:len(top)]
    assert probs == pytest.approx(best, abs=1e-9)


def test_semi_independent_is_close_at_peaks(db):
    """Alg 5's independence approximation tracks the exact signal at
    the peaks that matter for thresholding."""
    exact = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                          method="naive").signal)
    approx = dict(db.query("syn_separated", ENTERED_ROOM_QUERY,
                           method="semi").signal)
    peak_t = max(exact, key=exact.get)
    assert approx, "semi-independent emitted nothing"
    assert approx.get(peak_t, 0.0) > 0.0


def test_btree_reads_fewer_pages_than_naive(db):
    for method in ("naive", "btree"):
        db.drop_caches()
        db.stats.reset()
        db.query("syn_separated", ENTERED_ROOM_QUERY, method=method,
                 cold=True)
        if method == "naive":
            naive_reads = db.stats.logical_reads
        else:
            btree_reads = db.stats.logical_reads
    assert btree_reads * 2 < naive_reads
