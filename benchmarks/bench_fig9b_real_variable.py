"""Figure 9(b): variable-length access methods on "real" (routine) data.

The same room query as Figure 8(b), with a Kleene closure added
(directly comparable: the naive scan costs the same in both figures).
Expected shape: MC index beats the scan by more than an order of
magnitude at low density; semi-independent is faster still.
"""

from __future__ import annotations

import pytest

from .harness import measure, print_table, save_report
from .workloads import room_queries_for, routines_db

STREAM = "person0"
METHODS = ("naive", "mc", "semi")


def generate():
    db = routines_db(mc_alpha=2)
    try:
        queries = room_queries_for(variable=True)
        rows = []
        for room, text in queries:
            density = db.data_density(STREAM, text)
            for method in METHODS:
                m = measure(db, STREAM, text, method, f"{method}/{room}",
                            repeats=1)
                rows.append({
                    "room": room,
                    "density": round(density, 4),
                    "method": method,
                    "wall_ms": round(m.wall_ms, 2),
                    "physical_reads": m.physical_reads,
                })
        rows.sort(key=lambda r: (-r["density"], r["room"], r["method"]))
        text_out = print_table(
            f"Figure 9(b): {len(queries)} Kleene room queries on a routine "
            "stream",
            rows,
            columns=["room", "density", "method", "wall_ms", "physical_reads"],
        )
        save_report("fig9b", text_out, {"rows": rows})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def db():
    database = routines_db(mc_alpha=2)
    yield database
    database.close()


@pytest.fixture(scope="module")
def low_density_query(db):
    queries = room_queries_for(variable=True)
    return queries[-1]


@pytest.mark.parametrize("method", METHODS)
def test_fig9b_low_density_query(benchmark, db, low_density_query, method):
    _, text = low_density_query
    benchmark.pedantic(
        lambda: db.query(STREAM, text, method=method, cold=True),
        rounds=3, iterations=1,
    )


def test_fig9b_shape_mc_beats_scan(db, low_density_query):
    _, text = low_density_query
    naive = measure(db, STREAM, text, "naive", "n", repeats=1)
    mc = measure(db, STREAM, text, "mc", "m", repeats=1)
    assert mc.wall_ms < naive.wall_ms


def test_fig9b_mc_matches_naive_signal(db, low_density_query):
    """Correctness on real data: the MC method's emitted probabilities
    equal the naive scan's at every emitted timestep."""
    _, text = low_density_query
    naive = db.query(STREAM, text, method="naive").as_dict()
    mc = db.query(STREAM, text, method="mc").as_dict()
    for t, p in mc.items():
        assert abs(p - naive[t]) < 1e-6


if __name__ == "__main__":
    generate()
