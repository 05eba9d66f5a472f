"""Figure 11(a): MC-index CPT computation time vs interval span.

Measures the average time to compute the CPT across spans of varying
length, averaged over span placements, with an increasing number of the
*lowest* index levels omitted (a proxy for larger alpha). The naive
baseline composes raw CPTs one by one. Expected shape: each available
level halves lookup work; spans below the lowest available level's
granularity degrade toward the raw scan.
"""

from __future__ import annotations

import time

import pytest

from repro.indexes import MCLookupStats, open_mc
from repro.streams import Layout

from .harness import print_table, save_report
from .workloads import synthetic_db

SPANS = [4, 8, 16, 32, 64, 128, 256]
MIN_LEVELS = [1, 2, 3, 4]
PLACEMENTS = 12


def _setup():
    db = synthetic_db(density=0.1, layouts=(Layout.SEPARATED,), mc_alpha=2)
    reader = db.reader("syn_separated")
    mc = open_mc(db.env, "syn_separated", alpha=2, length=reader.length)
    return db, reader, mc


def _avg_lookup(mc, reader, span, min_level, use_index=True):
    """Average (seconds, pieces) over placements of one span length."""
    length = reader.length
    total_time = 0.0
    total_pieces = 0
    placements = 0
    step = max(1, (length - 1 - span) // PLACEMENTS)
    for t1 in range(0, length - 1 - span, step):
        t2 = t1 + span
        stats = MCLookupStats()
        start = time.perf_counter()
        if use_index:
            mc.compute_cpt(t1, t2, reader, min_level=min_level, stats=stats)
        else:
            cpt = reader.cpt_into(t1 + 1)
            pieces = 1
            for t in range(t1 + 2, t2 + 1):
                cpt = cpt.compose(reader.cpt_into(t))
                pieces += 1
            stats.base_cpts_read = pieces
        total_time += time.perf_counter() - start
        total_pieces += stats.pieces
        placements += 1
    return total_time / placements, total_pieces / placements


def generate():
    db, reader, mc = _setup()
    rows = []
    try:
        for span in SPANS:
            if span > reader.length - 2:
                continue
            naive_s, naive_pieces = _avg_lookup(mc, reader, span, 1,
                                                use_index=False)
            rows.append({
                "span": span,
                "series": "naive scan",
                "avg_ms": round(naive_s * 1000, 3),
                "avg_pieces": round(naive_pieces, 1),
            })
            for min_level in MIN_LEVELS:
                avg_s, pieces = _avg_lookup(mc, reader, span, min_level)
                rows.append({
                    "span": span,
                    "series": f"min_level={min_level}",
                    "avg_ms": round(avg_s * 1000, 3),
                    "avg_pieces": round(pieces, 1),
                })
        text = print_table(
            "Figure 11(a): composed-CPT lookup cost vs span "
            "(levels omitted from below)",
            rows,
            columns=["span", "series", "avg_ms", "avg_pieces"],
        )
        save_report("fig11a", text, {"rows": rows})
        return rows
    finally:
        db.close()


@pytest.fixture(scope="module")
def setup():
    db, reader, mc = _setup()
    yield db, reader, mc
    db.close()


@pytest.mark.parametrize("min_level", [1, 3])
def test_fig11a_lookup(benchmark, setup, min_level):
    db, reader, mc = setup
    span = min(256, reader.length - 2)
    benchmark.pedantic(
        lambda: mc.compute_cpt(100, 100 + span, reader, min_level=min_level),
        rounds=5, iterations=1,
    )


def test_fig11a_shape_each_level_halves_pieces(setup):
    """§4.4: each additional index level reduces lookup cost by half."""
    db, reader, mc = setup
    span = min(128, reader.length - 2)
    _, pieces_full = _avg_lookup(mc, reader, span, min_level=1)
    _, pieces_omit2 = _avg_lookup(mc, reader, span, min_level=3)
    assert pieces_full < pieces_omit2

    _, naive_pieces = _avg_lookup(mc, reader, span, 1, use_index=False)
    assert pieces_full * 4 < naive_pieces


if __name__ == "__main__":
    generate()
