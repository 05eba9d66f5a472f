"""Ablation: MC index alpha vs query latency (§4.4's tradeoff, measured
end-to-end on queries rather than isolated lookups).

Builds the same stream with alpha in {2, 4, 8} and runs the Kleene
Entered-Room query through the MC method. Lower alpha stores more
precomputed CPTs (more disk) and needs fewer compositions per gap.
"""

from __future__ import annotations

import pytest

from repro.streams import Layout

from .harness import measure, print_table, save_report
from .workloads import ENTERED_ROOM_KLEENE, synthetic_db

ALPHAS = [2, 4, 8]
DENSITY = 0.05


def _db(alpha):
    return synthetic_db(density=DENSITY, match_rate=1.0,
                        layouts=(Layout.SEPARATED,), mc_alpha=alpha)


def generate():
    rows = []
    for alpha in ALPHAS:
        db = _db(alpha)
        try:
            m = measure(db, "syn_separated", ENTERED_ROOM_KLEENE, "mc",
                        f"alpha={alpha}")
            result = db.query("syn_separated", ENTERED_ROOM_KLEENE,
                              method="mc", cold=True)
            mc_size = sum(
                size for name, size in db.storage_report().items()
                if "__mc" in name
            )
            rows.append({
                "alpha": alpha,
                "wall_ms": round(m.wall_ms, 2),
                "lookups": result.stats.mc_lookups.lookups,
                "base_cpts_read": result.stats.mc_lookups.base_cpts_read,
                "compositions": result.stats.mc_lookups.compositions,
                "index_mb": round(mc_size / 2**20, 3),
            })
        finally:
            db.close()
    text = print_table(
        "Ablation: MC index alpha vs query latency and storage", rows,
        columns=["alpha", "wall_ms", "lookups", "base_cpts_read",
                 "compositions", "index_mb"],
    )
    save_report("ablation_mc_alpha", text, {"rows": rows})
    return rows


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ablation_mc_alpha(benchmark, alpha):
    db = _db(alpha)
    try:
        benchmark.pedantic(
            lambda: db.query("syn_separated", ENTERED_ROOM_KLEENE,
                             method="mc", cold=True),
            rounds=3, iterations=1,
        )
    finally:
        db.close()


def test_ablation_mc_alpha_shape():
    """Higher alpha fetches more raw fringe CPTs per gap and stores a
    smaller index."""
    results = {}
    sizes = {}
    for alpha in (2, 8):
        db = _db(alpha)
        try:
            result = db.query("syn_separated", ENTERED_ROOM_KLEENE,
                              method="mc", cold=True)
            results[alpha] = result.stats.mc_lookups
            sizes[alpha] = sum(
                size for name, size in db.storage_report().items()
                if "__mc" in name
            )
        finally:
            db.close()
    assert sizes[8] <= sizes[2]
    assert results[2].pieces <= results[8].pieces


if __name__ == "__main__":
    generate()
