"""Seeded generator for the benchmark's Markovian streams.

The generator owns every generated value: it builds plain Python
marginals (``{state: p}``) and CPTs (``{src: {dst: p}}``) and hands
them to the program only through public constructors
(:class:`SparseDistribution`, :class:`CPT`, :class:`MarkovianStream`).
Nothing here calls into ``repro.streams.synthetic``, so a rewrite of
that module cannot silently change the workload, and :func:`digest`
hashes the generated values themselves (not their encoded bytes), so
a change to the program's record format cannot change it either.

World model, one ``location`` attribute: background cells
``C0..C{b-1}``, then ``Door`` and ``Room``. A timestep is *relevant*
to the benchmark queries when its marginal puts mass on Door or Room.
Streams are built forward (each marginal is the previous one pushed
through the step's CPT), so the consistency invariant holds exactly.

Two stream shapes control where the relevant steps sit:

``uniform``
    30-step snippets; ``density`` of them are relevant throughout. One
    relevant snippet is placed at a random offset inside each of
    equal-sized strata, so the gaps between them vary little between
    seeds.
``bimodal``
    Brief 4-step relevant bursts inside long background dwells (the
    §4.1.2 shape). Dwell lengths come from a fixed multiset whose order
    the seed shuffles, so every seed has the same gap-length profile.

Half the relevant snippets or bursts hold a correlated Door -> Room
entry and the rest a walk-past near-miss, chosen per seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SNIPPET_LEN = 30
BURST_LEN = 4
#: Relative dwell lengths of the bimodal shape (cycled, then shuffled).
DWELL_SHAPE = (0.25, 0.5, 1.0, 1.0, 2.0, 3.25)
MATCH_RATE = 0.5

Marginal = Dict[int, float]
Table = Dict[int, Dict[int, float]]


@dataclass(frozen=True)
class StreamSpec:
    """One stream's generation parameters."""

    name: str
    background: int
    length: int
    density: float
    shape: str = "uniform"

    @property
    def states(self) -> int:
        return self.background + 2


@dataclass
class StreamValues:
    """Generated values: ``cpts[t]`` maps timestep ``t`` to ``t + 1``."""

    spec: StreamSpec
    marginals: List[Marginal]
    cpts: List[Table]
    relevant_steps: int


def _row(rng: random.Random, targets: List[Tuple[int, float]]) -> Marginal:
    weights = [max(1e-3, w + rng.uniform(-0.05, 0.05)) for _, w in targets]
    total = sum(weights)
    row: Marginal = {}
    for (state, _), w in zip(targets, weights):
        row[state] = row.get(state, 0.0) + w / total
    return row


def _push(current: Marginal, table: Table) -> Marginal:
    out: Marginal = {}
    for x, px in current.items():
        for y, pyx in table[x].items():
            out[y] = out.get(y, 0.0) + px * pyx
    return out


def _plan(spec: StreamSpec, rng: random.Random) -> List[Tuple[str, int]]:
    """The stream as ``(kind, steps)`` segments, kind ``bg``, ``match``
    or ``miss``; the segment lengths sum to ``length - 1`` steps."""
    steps = spec.length - 1
    if spec.shape == "uniform":
        snippets = spec.length // SNIPPET_LEN
        relevant = round(spec.density * snippets)
        chosen = set()
        for k in range(relevant):
            lo = k * snippets // relevant
            hi = (k + 1) * snippets // relevant
            chosen.add(rng.randrange(lo, hi))
        kinds = iter(_match_kinds(rng, relevant))
        segments = [(next(kinds) if i in chosen else "bg", SNIPPET_LEN)
                    for i in range(snippets)]
    elif spec.shape == "bimodal":
        bursts = round(spec.density * spec.length / BURST_LEN)
        background = steps - bursts * BURST_LEN
        shape = [DWELL_SHAPE[i % len(DWELL_SHAPE)] for i in range(bursts + 1)]
        rng.shuffle(shape)
        scale = background / sum(shape)
        dwells = [max(1, int(s * scale)) for s in shape]
        dwells[-1] += background - sum(dwells)
        kinds = _match_kinds(rng, bursts)
        segments = [("bg", dwells[0])]
        for kind, dwell in zip(kinds, dwells[1:]):
            segments += [(kind, BURST_LEN), ("bg", dwell)]
    else:
        raise ValueError(f"unknown stream shape {spec.shape!r}")
    # Trim or pad the tail so the plan covers exactly ``steps`` steps.
    total = sum(n for _, n in segments)
    kind, n = segments[-1]
    segments[-1] = (kind, n - (total - steps))
    return segments


def _match_kinds(rng: random.Random, count: int) -> List[str]:
    matches = round(MATCH_RATE * count)
    kinds = ["match"] * matches + ["miss"] * (count - matches)
    rng.shuffle(kinds)
    return kinds


def generate(spec: StreamSpec, seed) -> StreamValues:
    """Generate one stream's values; deterministic per ``(spec, seed)``."""
    rng = random.Random(f"{seed}:{spec.name}:{spec.shape}")
    b = spec.background
    door, room = b, b + 1
    current: Marginal = {0: 1.0}
    marginals: List[Marginal] = [current]
    cpts: List[Table] = []
    here = 0
    relevant = 0
    for kind, steps in _plan(spec, rng):
        near = rng.randrange(b)
        for step in range(steps):
            if kind == "bg":
                row = _row(rng, [(here % b, 0.55), ((here + 1) % b, 0.30),
                                 ((here - 1) % b, 0.15)])
                table = {x: row for x in current}
                here += rng.choice((-1, 0, 1))
            elif step % 2 == 0:
                row = _row(rng, [(door, 0.70), (near, 0.30)])
                table = {x: row for x in current}
            else:
                if kind == "match":
                    door_row = _row(rng, [(room, 0.85), (near, 0.15)])
                    other = _row(rng, [(near, 0.85), (room, 0.15)])
                else:
                    door_row = _row(rng, [(near, 0.93), (room, 0.07)])
                    other = _row(rng, [(near, 0.80), (room, 0.20)])
                table = {x: door_row if x == door else other
                         for x in current}
            current = _push(current, table)
            cpts.append(table)
            marginals.append(current)
            if door in current or room in current:
                relevant += 1
    return StreamValues(spec, marginals, cpts, relevant)


def digest(values: StreamValues) -> str:
    """SHA-256 of the generated values (exact float bits, sorted)."""
    h = hashlib.sha256(repr(values.spec).encode())
    for t, marginal in enumerate(values.marginals):
        h.update(b"m%d" % t)
        for s in sorted(marginal):
            h.update(b"%d:%s;" % (s, marginal[s].hex().encode()))
        if t < len(values.cpts):
            table = values.cpts[t]
            for x in sorted(table):
                h.update(b"r%d" % x)
                for y in sorted(table[x]):
                    h.update(b"%d:%s;" % (y, table[x][y].hex().encode()))
    return h.hexdigest()


def space_values(background: int) -> List[str]:
    return [f"C{i}" for i in range(background)] + ["Door", "Room"]


def to_stream(values: StreamValues, name: Optional[str] = None):
    """The program's in-memory stream, built via public constructors."""
    from repro.probability import CPT, SparseDistribution
    from repro.streams import MarkovianStream, single_attribute_space

    space = single_attribute_space("location",
                                   space_values(values.spec.background))
    return MarkovianStream(
        name or values.spec.name, space,
        [SparseDistribution(m) for m in values.marginals],
        [CPT(table) for table in values.cpts],
        validate=False,
    )
