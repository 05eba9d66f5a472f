"""Figure 8(b): fixed-length access methods on "real" (routine) data.

The paper runs 22 Entered-Room queries, one per room, against one
routine stream; the synthetic grid has one monitored room, so this runs
its single Entered-Room query. Each query plots three points (naive
scan / B+Tree / top-k B+Tree with k=1) at its measured data density.
Expected shape: bimodal densities; B+Tree speedup grows as density
falls; top-k poor at low density, often best at high density when the
signal has sharp peaks.
"""

from __future__ import annotations

import pytest

from .harness import measure, print_table, save_report
from .workloads import room_queries_for, routines_db

STREAM = "person0"


def generate():
    db = routines_db()
    try:
        queries = room_queries_for()
        rows = []
        for room, text in queries:
            density = db.data_density(STREAM, text)
            for method, kwargs in (
                ("naive", {}),
                ("btree", {}),
                ("topk", {"k": 1}),
            ):
                m = measure(db, STREAM, text, method, f"{method}/{room}",
                            repeats=1, **kwargs)
                rows.append({
                    "room": room,
                    "density": round(density, 4),
                    "method": method,
                    "wall_ms": round(m.wall_ms, 2),
                    "physical_reads": m.physical_reads,
                })
        rows.sort(key=lambda r: (-r["density"], r["room"], r["method"]))
        text_out = print_table(
            f"Figure 8(b): {len(queries)} Entered-Room queries on a routine "
            "stream",
            rows,
            columns=["room", "density", "method", "wall_ms", "physical_reads"],
        )
        save_report("fig8b", text_out, {"rows": rows})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def db():
    database = routines_db()
    yield database
    database.close()


@pytest.fixture(scope="module")
def sample_queries(db):
    queries = room_queries_for()
    # Highest- and lowest-density queries as benchmark representatives.
    return queries[0], queries[-1]


@pytest.mark.parametrize("method", ["naive", "btree", "topk"])
def test_fig8b_low_density_query(benchmark, db, sample_queries, method):
    _, low = sample_queries
    kwargs = {"k": 1} if method == "topk" else {}
    benchmark.pedantic(
        lambda: db.query(STREAM, low[1], method=method, cold=True, **kwargs),
        rounds=3, iterations=1,
    )


@pytest.mark.parametrize("method", ["naive", "btree", "topk"])
def test_fig8b_high_density_query(benchmark, db, sample_queries, method):
    high, _ = sample_queries
    kwargs = {"k": 1} if method == "topk" else {}
    benchmark.pedantic(
        lambda: db.query(STREAM, high[1], method=method, cold=True, **kwargs),
        rounds=3, iterations=1,
    )


def test_fig8b_shape_btree_beats_naive_at_low_density(db, sample_queries):
    _, (room, text) = sample_queries
    naive = measure(db, STREAM, text, "naive", "n", repeats=1)
    btree = measure(db, STREAM, text, "btree", "b", repeats=1)
    assert btree.wall_ms < naive.wall_ms


def test_fig8b_density_is_bimodal(db):
    """§4.1.2: most queries sit near density 0 or near density 1."""
    queries = room_queries_for()
    densities = [db.data_density(STREAM, text) for _, text in queries]
    middle = [d for d in densities if 0.25 <= d <= 0.55]
    assert len(middle) <= len(densities) // 2


if __name__ == "__main__":
    generate()
