"""Figure 9(c): approximation error of the semi-independent method.

Two workloads:

1. **Routine streams** (the real-data substitute): the Kleene
   Entered-Room query of Figure 9(b) on each person's stream. Their
   relevant timesteps sit in short bursts whose correlations decay
   across the background gaps, mirroring the paper's *favorable* case
   (peak identified, modest relative error).

2. **Fork streams**: hand-built Markovian streams with *unresolvable*
   branch ambiguity (the tag approached a room along one of two
   sensor-silent corridors; only one passes the query's first
   predicate). Correlation across the gap persists no matter how good
   the smoothing, and the independence assumption splits the joint —
   reproducing the paper's unfavorable case (raw errors up to ~0.29 and
   mis-identified peaks, §4.3.2).
"""

from __future__ import annotations

import random
import tempfile
from typing import List

import pytest

from repro.core import Caldera, approximation_report
from repro.probability import CPT, SparseDistribution
from repro.streams import MarkovianStream, single_attribute_space

from .harness import print_table, save_report
from .workloads import ENTERED_ROOM_KLEENE, ROUTINE_PEOPLE, routines_db


def _signals(db, stream, text):
    exact = db.query(stream, text, method="mc").as_dict()
    approx = db.query(stream, text, method="semi").as_dict()
    return exact, approx


def error_report(db, stream, text, label=None):
    exact, approx = _signals(db, stream, text)
    report = approximation_report(sorted(exact.items()),
                                  sorted(approx.items()))
    if report is None:
        return None
    return {
        "case": label or stream,
        "peak_found": report.peak_found,
        "peak_exact": round(report.peak_exact, 4),
        "peak_approx": round(report.peak_approx, 4),
        "rel_error_at_peak": round(report.rel_error_at_peak, 4),
        "max_raw_error": round(report.max_raw_error, 4),
        "mean_raw_error": round(report.mean_raw_error, 4),
    }


# ---------------------------------------------------------------------------
# Part 2: fork streams with persistent ambiguity.
# ---------------------------------------------------------------------------

FORK_SPACE = single_attribute_space(
    "location", ["X", "A", "C", "M1", "M2", "B", "D"]
)
X, A, C, M1, M2, B, D = range(7)

FORK_QUERY = "location=A -> (!location=B)* location=B"


def fork_stream(name: str, p_a: float = 0.5, gap: int = 3,
                arrive_other: float = 0.1, tail: int = 4,
                seed: int = 0) -> MarkovianStream:
    """A tag approaches room B along one of two sensor-silent corridors.

    With probability ``p_a`` it takes the corridor through doorway A
    (matching the query's first predicate) and surely reaches B; with
    ``1 - p_a`` it takes the other corridor, reaching B only with
    probability ``arrive_other``. The ``gap`` middle timesteps sit in
    M1/M2 — irrelevant to both predicates — so the semi-independent
    method must take the independence shortcut exactly where the branch
    correlation matters.
    """
    rng = random.Random(seed)
    marginals = [SparseDistribution({X: 1.0})]
    cpts: List[CPT] = []

    def step(cpt: CPT) -> None:
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))

    step(CPT({X: {A: p_a, C: 1.0 - p_a}}))
    step(CPT({A: {M1: 1.0}, C: {M2: 1.0}}))
    for _ in range(gap - 1):
        step(CPT({M1: {M1: 1.0}, M2: {M2: 1.0}}))
    step(CPT({M1: {B: 1.0}, M2: {B: arrive_other, D: 1.0 - arrive_other}}))
    for _ in range(tail):
        jitter = 0.02 + 0.01 * rng.random()
        step(CPT({B: {B: 1.0 - jitter, D: jitter}, D: {D: 1.0}}))
    return MarkovianStream(name, FORK_SPACE, marginals, cpts)


def fork_cases():
    return [
        ("fork p_a=0.5 gap=3", dict(p_a=0.5, gap=3, arrive_other=0.1)),
        ("fork p_a=0.3 gap=5", dict(p_a=0.3, gap=5, arrive_other=0.2)),
        ("fork p_a=0.7 gap=2", dict(p_a=0.7, gap=2, arrive_other=0.0)),
        ("fork p_a=0.5 gap=8", dict(p_a=0.5, gap=8, arrive_other=0.5)),
    ]


def fork_reports(tmp_dir: str):
    rows = []
    for i, (label, kwargs) in enumerate(fork_cases()):
        with Caldera(f"{tmp_dir}/fork{i}", page_size=4096) as db:
            stream = fork_stream(f"fork{i}", seed=i, **kwargs)
            db.archive(stream, mc_alpha=2)
            report = error_report(db, stream.name, FORK_QUERY, label=label)
            if report is not None:
                rows.append(report)
    return rows


def routine_reports(db) -> List[dict]:
    rows = []
    for person in range(ROUTINE_PEOPLE):
        stream = f"person{person}"
        report = error_report(db, stream, ENTERED_ROOM_KLEENE,
                              label=f"{stream} (room query)")
        if report is not None:
            rows.append(report)
    return rows


def generate():
    rows = []
    db = routines_db(mc_alpha=2)
    try:
        rows.extend(routine_reports(db))
    finally:
        db.close()
    with tempfile.TemporaryDirectory() as tmp:
        rows.extend(fork_reports(tmp))
    text_out = print_table(
        "Figure 9(c): semi-independent approximation error",
        rows,
        columns=["case", "peak_found", "peak_exact", "peak_approx",
                 "rel_error_at_peak", "max_raw_error", "mean_raw_error"],
    )
    save_report("fig9c", text_out, {"rows": rows})
    return rows


@pytest.fixture(scope="module")
def db():
    database = routines_db(mc_alpha=2)
    yield database
    database.close()


def test_fig9c_benchmark_semi_vs_mc(benchmark, db):
    benchmark.pedantic(
        lambda: db.query("person0", ENTERED_ROOM_KLEENE, method="semi",
                         cold=True),
        rounds=3, iterations=1,
    )


def test_fig9c_shape_probabilities_bounded(db):
    """Approximate probabilities stay in [0, 1]."""
    approx = db.query("person0", ENTERED_ROOM_KLEENE,
                      method="semi").as_dict()
    assert all(-1e-9 <= p <= 1 + 1e-9 for p in approx.values())


def test_fig9c_shape_routine_errors_are_modest(db):
    """The favorable regime: on routine streams the peak is
    found and errors stay modest (the paper's 'tracks fairly well')."""
    rows = routine_reports(db)
    assert rows
    assert all(r["mean_raw_error"] <= 0.5 for r in rows)


def test_fig9c_shape_fork_streams_break_independence(tmp_path):
    """The unfavorable regime: persistent branch ambiguity produces raw
    errors on the order of the paper's 0.286."""
    rows = fork_reports(str(tmp_path))
    assert rows
    assert max(r["max_raw_error"] for r in rows) >= 0.15

    # The exact answer on the canonical fork is p_a; independence gives
    # p_a * P(B), a large underestimate.
    with Caldera(str(tmp_path / "canon"), page_size=4096) as db:
        stream = fork_stream("canon", p_a=0.5, gap=3, arrive_other=0.1)
        db.archive(stream, mc_alpha=2)
        arrival_t = 2 + 3  # X, fork, gap, then B
        exact = db.query("canon", FORK_QUERY, method="mc").as_dict()
        approx = db.query("canon", FORK_QUERY, method="semi").as_dict()
        assert exact[arrival_t] == pytest.approx(0.5, abs=1e-9)
        p_b = 0.5 + 0.5 * 0.1
        assert approx[arrival_t] == pytest.approx(0.5 * p_b, abs=1e-9)


if __name__ == "__main__":
    generate()
