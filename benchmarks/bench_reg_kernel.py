"""Reg kernel microbenchmark: vectorized vs reference implementation.

The vectorized Reg (:class:`repro.lahar.reg.Reg`) carries the joint
(NFA-set x stream-state) mass as a dense NumPy matrix in full-space
coordinates and consumes a timestep's CPT arrays as one gather plus one
``bincount`` scatter; the reference (:class:`repro.lahar.reg.ReferenceReg`)
walks dict-of-dicts in Python, paying O(nnz) dict arithmetic per live
DFA set. Two stream shapes:

* ``wide`` — 42 states with dense CPT rows. The reference's per-set
  dict passes multiply with query complexity: a single-link query keeps
  2-3 sets live, while the multi-link patrol query with negated Kleene
  loops keeps many live and the kernel wins well past the 3x bar.
* ``sparse`` — 352 states with 3-entry rows over a 3-state support,
  the shape of the benchmark's ``scan-dense`` stream: about 9 stored
  transitions out of 123,904 per step. Here the per-step cost is
  NumPy call overhead, not arithmetic.

Writes ``results/reg_kernel.manifest.json``: wall times and µs per
update live in the rows (machine-dependent); the registry records the
deterministic ``reg.updates{case=,query=,impl=}`` counts.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.lahar import ReferenceReg, Reg
from repro.obs import MetricsRegistry
from repro.probability import CPT, SparseDistribution
from repro.query import parse_query
from repro.streams import ENTERED_ROOM_QUERY, MarkovianStream
from repro.streams.synthetic import synthetic_space

from .harness import finish_run, print_table, save_report, start_run
from .workloads import ENTERED_ROOM_KLEENE, FULL_SCALE

#: A wide state space (40 background cells + door + room) with dense
#: CPT rows, so every timestep's support covers most of the space —
#: the regime where the reference's per-set dict passes cost most.
#: (Wide supports arise from long smoothing windows and noisy
#: deployments; the sparse case below is the narrow-support shape.)
NUM_CELLS = 40
LENGTH = 2000 if FULL_SCALE else 600
REPEATS = 3

#: The headline query: a three-hop patrol with negated Kleene loops
#: between the hops. Each negated loop keeps extra DFA sets alive, so
#: the reference's per-set dict passes multiply while the kernel's
#: per-step cost stays flat.
PATROL_QUERY = (
    "location=C0 -> (!location=C5)* location=C1 -> "
    "(!location=C6)* location=C2 -> location=Room"
)


def _wide_stream():
    space = synthetic_space(NUM_CELLS)
    rng = random.Random(13)
    n = len(space)

    def dense_row():
        weights = [rng.random() for _ in range(n)]
        total = sum(weights)
        return SparseDistribution(
            {s: w / total for s, w in enumerate(weights)}
        )

    marginals = [SparseDistribution.uniform(range(n))]
    cpts = []
    for _ in range(LENGTH - 1):
        cpt = CPT({s: dense_row() for s in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("wide", space, marginals, cpts, validate=False)


#: The scan-dense shape: 350 background cells + door + room.
SPARSE_CELLS = 350


def _sparse_stream():
    """A walk over 352 states whose support is always 3 states, every
    support state sharing one 3-entry row per step; one step in three
    heads for the door and the next enters the room, so both queries
    have mass to carry."""
    space = synthetic_space(SPARSE_CELLS)
    door, room = space.state_id(("Door",)), space.state_id(("Room",))
    rng = random.Random(29)
    here = 0
    marginals = [SparseDistribution.point(here)]
    cpts = []
    for t in range(LENGTH - 1):
        here = (here + rng.choice((-1, 0, 1))) % SPARSE_CELLS
        targets = (
            [here, door, (here + 1) % SPARSE_CELLS],
            [room, door, here],
            [here, (here + 1) % SPARSE_CELLS, (here - 1) % SPARSE_CELLS],
        )[t % 3]
        weights = [rng.random() + 0.1 for _ in targets]
        total = sum(weights)
        row = SparseDistribution(
            {s: w / total for s, w in zip(targets, weights)})
        cpt = CPT({s: row for s in marginals[-1].support()})
        cpts.append(cpt)
        marginals.append(cpt.apply(marginals[-1]))
    return MarkovianStream("sparse", space, marginals, cpts, validate=False)


#: (case, stream builder, queries) — each query as (name, text).
CASES = (
    ("wide", _wide_stream, (("entered-room", ENTERED_ROOM_QUERY),
                            ("patrol", PATROL_QUERY))),
    ("sparse", _sparse_stream, (("entered-room", ENTERED_ROOM_QUERY),
                                ("kleene", ENTERED_ROOM_KLEENE))),
)


def _run(reg, stream):
    probs = [reg.initialize(stream.marginal(0))]
    for t in range(1, len(stream)):
        probs.append(reg.update(stream.cpt_into(t)))
    return probs


def _time(make_reg, stream):
    """Best-of-REPEATS wall ms, the probabilities, and the updates one
    run performs."""
    best = float("inf")
    probs = None
    for _ in range(REPEATS):
        reg = make_reg()
        t0 = time.perf_counter()
        probs = _run(reg, stream)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0, probs, reg.updates_performed


def generate():
    registry = MetricsRegistry()
    manifest, tracer = start_run(
        "reg_kernel",
        config={"num_cells": NUM_CELLS, "sparse_cells": SPARSE_CELLS,
                "length": LENGTH},
    )
    rows = []
    max_diff = 0.0
    for case, build, queries in CASES:
        stream = build()
        space = stream.space
        for name, text in queries:
            query = parse_query(text)
            timed = {}
            for impl, cls in (("reference", ReferenceReg),
                              ("vectorized", Reg)):
                with tracer.span(f"{impl}/{case}/{name}"):
                    timed[impl] = _time(lambda: cls(query, space), stream)
            ref_ms, ref_probs, _ = timed["reference"]
            diff = max(abs(a - b) for a, b in
                       zip(ref_probs, timed["vectorized"][1]))
            max_diff = max(max_diff, diff)
            for impl, (ms, _, updates) in timed.items():
                registry.counter("reg.updates", case=case, query=name,
                                 impl=impl).inc(updates)
                rows.append({
                    "case": case, "states": len(space), "query": name,
                    "impl": impl, "wall_ms": round(ms, 2),
                    "us_per_update": round(1000 * ms / updates, 2),
                    "reg_updates": updates,
                    "speedup": round(ref_ms / ms, 2) if ms
                    else float("inf"),
                })
    text = print_table(
        f"Reg kernel: {LENGTH} timesteps per stream (max |diff| "
        f"{max_diff:.2e})",
        rows, columns=["case", "states", "query", "impl", "wall_ms",
                       "us_per_update", "reg_updates", "speedup"],
    )
    save_report("reg_kernel", text,
                {"rows": rows, "max_abs_diff": max_diff})
    finish_run(manifest, tracer, registry,
               extra={"rows": rows, "max_abs_diff": max_diff})
    return rows


@pytest.fixture(scope="module")
def stream():
    return _wide_stream()


def test_reg_kernel_matches_reference(stream):
    """Both implementations emit identical probabilities on both stream
    shapes, every query of each."""
    for case, build, queries in CASES:
        shaped = stream if case == "wide" else build()
        for _, text in queries:
            query = parse_query(text)
            ref = ReferenceReg(query, shaped.space)
            vec = Reg(query, shaped.space)
            ref_probs = _run(ref, shaped)
            vec_probs = _run(vec, shaped)
            assert max(ref_probs) > 0.0
            assert max(abs(a - b) for a, b in
                       zip(ref_probs, vec_probs)) < 1e-9
            assert ref.updates_performed == vec.updates_performed \
                == len(shaped) - 1


def test_reg_kernel_shape_vectorized_3x(stream):
    """Acceptance bar: the NumPy kernel beats the reference >= 3x at
    smoke scale on the multi-link patrol query, with identical
    probabilities."""
    query = parse_query(PATROL_QUERY)
    ref_ms, ref_probs, _ = _time(lambda: ReferenceReg(query, stream.space),
                                 stream)
    vec_ms, vec_probs, _ = _time(lambda: Reg(query, stream.space), stream)
    assert max(abs(a - b) for a, b in zip(ref_probs, vec_probs)) < 1e-9
    assert vec_ms * 3 <= ref_ms, f"{ref_ms:.1f}ms ref vs {vec_ms:.1f}ms vec"


if __name__ == "__main__":
    generate()
