"""The Reg operator: per-timestep Regular-query match probability (§3).

Reg runs a Regular query's linear NFA over a Markovian stream and
emits, at every consumed timestep ``t``, the probability that a match
*ends* at ``t``. Exactness comes from determinization: a concrete
state path visits, at each timestep, a well-defined *set* of NFA
states (subset construction over the linear NFA of
:mod:`repro.query.regular`, with the start state always present — a
match may begin anywhere). Reg therefore partitions the stream's
probability mass by ``(NFA state set, stream state)`` and pushes that
joint mass through each timestep's CPT; the emitted probability is the
total mass in sets containing the accept state. No path is counted
twice, because the set is a deterministic function of the path.

Two implementations share the compiled query machinery:

* :class:`Reg` — the production kernel. The joint mass is a dense
  NumPy matrix ``V[set, stream-state]`` in fixed full-space
  coordinates; one timestep is ``V @ B`` (``B`` the CPT densified in
  one chained-``fromiter`` scatter) followed by a regrouping of
  destination columns into their successor sets — columns are classed
  once, at construction, by *symbol mask* (which predicates each
  stream state satisfies), so the per-step Python cost is
  O(sets × distinct masks) plus one O(nnz) densification, not
  O(sets × nnz). The reference pays O(nnz) dict arithmetic *per live
  set*, so the kernel pulls ahead as queries grow links and loops
  (more live sets) and as supports widen.
* :class:`ReferenceReg` — a dict-of-dicts pure-Python implementation
  of the same semantics, kept slow and obvious for property testing;
  on narrow supports with single-link queries it is competitive, which
  is why the benchmarks measure the kernel on wide-support streams.

Both support the span operations of Algorithms 4 & 5: collapsing over
irrelevant gaps (only the start state and negated-loop states survive
a timestep with zero mass on every indexable predicate), conditioned
loop spans, and the independence approximation.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..probability import CPT, SparseDistribution
from ..query.predicates import Not, Predicate
from ..query.regular import RegularQuery
from ..streams.schema import StateSpace


class QueryMachine:
    """A Regular query compiled against a state space: per-stream-state
    symbol masks and the cached subset-construction transition.

    NFA states are ``0 .. n`` (state q = "first q links matched");
    a DFA state is a bitmask of NFA states with bit 0 always set.
    The accept bit ``n`` has no outgoing transitions, so acceptance
    expires after one step — exactly "a match ends here".
    """

    def __init__(self, query: RegularQuery, space: StateSpace) -> None:
        self.query = query
        self.space = space
        self.n = len(query)

        predicates: List[Predicate] = []
        bit_of: Dict[str, int] = {}

        def bit_for(predicate: Predicate) -> int:
            sig = predicate.signature()
            if sig not in bit_of:
                bit_of[sig] = len(predicates)
                predicates.append(predicate)
            return bit_of[sig]

        self._link_bits = [bit_for(link.predicate) for link in query.links]
        #: per NFA state q: (predicate bit, negated) of its self-loop.
        self._loop_specs: List[Optional[Tuple[int, bool]]] = []
        for link in query.links:
            if link.loop is None:
                self._loop_specs.append(None)
            elif isinstance(link.loop, Not):
                self._loop_specs.append((bit_for(link.loop.base), True))
            else:
                self._loop_specs.append((bit_for(link.loop), False))

        self.state_mask = [0] * len(space)
        for bit, predicate in enumerate(predicates):
            for s in predicate.matching_states(space):
                self.state_mask[s] |= 1 << bit

        self.start_set = 1  # {NFA state 0}
        self.accept_bit = 1 << self.n
        # NFA states that survive an irrelevant timestep (zero mass on
        # every indexable predicate): the start state, and any state
        # whose self-loop is a *negated* predicate — trivially satisfied
        # when the base predicate has zero mass.
        keep = 1
        for q, spec in enumerate(self._loop_specs):
            if spec is not None and spec[1]:
                keep |= 1 << q
        self._collapse_mask = keep
        self._delta: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def mask_of(self, state_id: int) -> int:
        return self.state_mask[state_id]

    def step(self, set_bits: int, mask_bits: int) -> int:
        """The successor DFA state after consuming a symbol with the
        given predicate mask (cached)."""
        key = (set_bits, mask_bits)
        out = self._delta.get(key)
        if out is None:
            out = 1
            for q in range(self.n):
                if set_bits >> q & 1:
                    if mask_bits >> self._link_bits[q] & 1:
                        out |= 1 << (q + 1)
                    spec = self._loop_specs[q]
                    if spec is not None and \
                            bool(mask_bits >> spec[0] & 1) != spec[1]:
                        out |= 1 << q
            self._delta[key] = out
        return out

    def collapse(self, set_bits: int) -> int:
        """The DFA state surviving a gap of irrelevant timesteps."""
        return (set_bits & self._collapse_mask) | 1

    def is_accepting(self, set_bits: int) -> bool:
        return bool(set_bits & self.accept_bit)


# ----------------------------------------------------------------------
# Vectorized kernel
# ----------------------------------------------------------------------
class Reg:
    """The NumPy-vectorized Reg kernel (the production implementation)."""

    def __init__(self, query: RegularQuery, space: StateSpace,
                 machine: Optional[QueryMachine] = None) -> None:
        self.query = query
        self.space = space
        self._m = machine if machine is not None else \
            QueryMachine(query, space)
        #: Number of update operations performed since construction.
        self.updates_performed = 0
        self._n = len(space)
        mask_arr = np.asarray(self._m.state_mask, dtype=np.int64)
        #: Columns grouped by symbol mask — fixed for the machine's
        #: life, so classification never touches per-state masks again.
        self._groups: List[Tuple[int, np.ndarray]] = [
            (int(mv), np.flatnonzero(mask_arr == mv))
            for mv in np.unique(mask_arr)
        ]
        #: Per-column group index and flat column ids, for the scatter.
        self._group_of = np.searchsorted(
            np.asarray([mv for mv, _ in self._groups], dtype=np.int64),
            mask_arr,
        )
        self._col_ids = np.arange(self._n, dtype=np.int64)
        #: DFA set -> per-group destination signature (int64 array).
        self._sig: Dict[int, np.ndarray] = {}
        self._sets: List[int] = []
        self._V = np.zeros((0, self._n))

    # -- state helpers -------------------------------------------------
    def _accept_mass(self) -> float:
        total = 0.0
        for i, s in enumerate(self._sets):
            if self._m.is_accepting(s):
                total += float(self._V[i].sum())
        return total

    def _signature(self, set_bits: int) -> np.ndarray:
        """The per-group destination sets of one source set (cached)."""
        sig = self._sig.get(set_bits)
        if sig is None:
            step = self._m.step
            sig = self._sig[set_bits] = np.fromiter(
                (step(set_bits, mb) for mb, _ in self._groups),
                np.int64, len(self._groups),
            )
        return sig

    def _classify(self, mids: Sequence[int], W: np.ndarray) -> None:
        """Regroup the mass rows ``W`` (one per source set in ``mids``)
        into the successor DFA states given by the destination symbols:
        one ``bincount`` scatter over flat (destination set, column)
        indices, so no per-set Python work beyond a signature lookup."""
        if not mids:
            self._sets = []
            self._V = np.zeros((0, self._n))
            return
        D = np.vstack([self._signature(s) for s in mids])
        dsts, inv = np.unique(D, return_inverse=True)
        out_col = inv.reshape(D.shape)[:, self._group_of]
        flat = out_col * self._n + self._col_ids
        self._V = np.bincount(
            flat.ravel(), weights=W.ravel(),
            minlength=len(dsts) * self._n,
        ).reshape(len(dsts), self._n)
        self._sets = [int(s) for s in dsts]
        self._prune()

    def _prune(self) -> None:
        """Drop exactly-empty rows (mass is nonnegative, so a zero sum
        means identically zero)."""
        if not self._sets:
            return
        live = np.flatnonzero(self._V.sum(axis=1) > 0.0)
        if len(live) < len(self._sets):
            self._sets = [self._sets[i] for i in live]
            self._V = self._V[live]

    def _collapse_rows(self) -> None:
        """Merge rows into their gap-collapsed DFA states."""
        acc: Dict[int, np.ndarray] = {}
        for i, s in enumerate(self._sets):
            mid = self._m.collapse(s)
            if mid in acc:
                acc[mid] = acc[mid] + self._V[i]
            else:
                acc[mid] = self._V[i].copy()
        self._sets = list(acc.keys())
        self._V = np.vstack(list(acc.values())) if acc else \
            np.zeros((0, self._n))

    def _dense(self, cpt: CPT) -> np.ndarray:
        """The CPT as a dense (n, n) transition block: one chained
        ``fromiter`` per coordinate stream plus one scatter, so every
        per-entry step runs at C speed."""
        B = np.zeros((self._n, self._n))
        rows = list(cpt.rows())
        if not rows:
            return B
        lens = np.fromiter((len(r) for _, r in rows), np.int64, len(rows))
        nnz = int(lens.sum())
        if not nnz:
            return B
        src = np.repeat(
            np.fromiter((x for x, _ in rows), np.int64, len(rows)), lens)
        dst = np.fromiter(
            chain.from_iterable(r for _, r in rows), np.int64, nnz)
        vals = np.fromiter(
            chain.from_iterable(r.values() for _, r in rows),
            np.float64, nnz)
        B[src, dst] = vals
        return B

    def _scatter(self, marginal: SparseDistribution) -> np.ndarray:
        ids, vals = marginal.as_arrays()
        vec = np.zeros(self._n)
        vec[ids] = vals
        return vec

    # -- API -----------------------------------------------------------
    def initialize(self, marginal: SparseDistribution) -> float:
        """Start a fresh run on the first timestep's marginal; returns
        the match probability at that timestep."""
        self._classify([self._m.start_set],
                       self._scatter(marginal).reshape(1, -1))
        return self._accept_mass()

    def update(self, cpt: CPT) -> float:
        """Consume one timestep via its incoming CPT; returns the match
        probability at the new timestep."""
        self.updates_performed += 1
        if not self._sets:
            return 0.0
        self._classify(self._sets, self._V @ self._dense(cpt))
        return self._accept_mass()

    def update_span(self, cpt: CPT, span: int = 1) -> float:
        """Consume a span of ``span`` timesteps whose interior is
        irrelevant, via the composed CPT (Algorithm 4's gap jump)."""
        if span > 1:
            self._collapse_rows()
        return self.update(cpt)

    def update_independent(self, marginal: SparseDistribution,
                           span: int = 1) -> float:
        """Consume a distant timestep under the independence
        approximation (Algorithm 5): each set's mass is redistributed
        by the new marginal."""
        self.updates_performed += 1
        if not self._sets:
            return 0.0
        if span > 1:
            self._collapse_rows()
        totals = self._V.sum(axis=1)
        probs = self._scatter(marginal)
        self._classify(self._sets, np.outer(totals, probs))
        return self._accept_mass()

    def update_loop_span(self, loop_state: int, plain: CPT, cond: CPT,
                         span: int = 1) -> float:
        """Cross a run of timesteps relevant only to a positive Kleene
        loop at NFA state ``loop_state`` (§3.3.2): mass whose paths
        satisfied the loop predicate throughout (per the conditioned
        CPT) keeps the loop state; the rest collapses like a plain gap."""
        self.updates_performed += 1
        if not self._sets:
            return 0.0
        m = self._m
        qbit = 1 << loop_state
        B_plain = self._dense(plain)
        B_cond = B_plain if cond is plain else self._dense(cond)
        mids: List[int] = []
        rows: List[np.ndarray] = []
        for i, s in enumerate(self._sets):
            mid = m.collapse(s)
            if s & qbit:
                kept = self._V[i] @ B_cond
                exited = np.maximum(self._V[i] @ B_plain - kept, 0.0)
                mids.extend((mid | qbit, mid))
                rows.extend((kept, exited))
            else:
                mids.append(mid)
                rows.append(self._V[i] @ B_plain)
        self._classify(mids, np.vstack(rows))
        return self._accept_mass()


# ----------------------------------------------------------------------
# Pure-Python reference
# ----------------------------------------------------------------------
class ReferenceReg:
    """Dict-based reference implementation of Reg — same semantics as
    :class:`Reg`, no NumPy, kept for property testing."""

    def __init__(self, query: RegularQuery, space: StateSpace,
                 machine: Optional[QueryMachine] = None) -> None:
        self.query = query
        self.space = space
        self._m = machine if machine is not None else \
            QueryMachine(query, space)
        self.updates_performed = 0
        self._mass: Dict[int, Dict[int, float]] = {}

    # -- helpers -------------------------------------------------------
    def _accept_mass(self) -> float:
        return sum(
            sum(dist.values())
            for s, dist in self._mass.items() if self._m.is_accepting(s)
        )

    @staticmethod
    def _add(bucket: Dict[int, Dict[int, float]], s: int, x: int,
             p: float) -> None:
        row = bucket.setdefault(s, {})
        row[x] = row.get(x, 0.0) + p

    def _classify(self, propagated: List[Tuple[int, Dict[int, float]]]) \
            -> None:
        m = self._m
        new: Dict[int, Dict[int, float]] = {}
        for mid, dist in propagated:
            for y, p in dist.items():
                if p != 0.0:
                    self._add(new, m.step(mid, m.mask_of(y)), y, p)
        self._mass = new

    def _collapse(self) -> None:
        merged: Dict[int, Dict[int, float]] = {}
        for s, dist in self._mass.items():
            for x, p in dist.items():
                self._add(merged, self._m.collapse(s), x, p)
        self._mass = merged

    @staticmethod
    def _apply(cpt: CPT, dist: Dict[int, float]) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for x, px in dist.items():
            if x in cpt:
                for y, pr in cpt.row(x).items():
                    out[y] = out.get(y, 0.0) + px * pr
        return out

    # -- API -----------------------------------------------------------
    def initialize(self, marginal: SparseDistribution) -> float:
        m = self._m
        self._mass = {}
        for x, p in marginal.items():
            self._add(self._mass, m.step(m.start_set, m.mask_of(x)), x, p)
        return self._accept_mass()

    def update(self, cpt: CPT) -> float:
        self.updates_performed += 1
        self._classify(
            [(s, self._apply(cpt, dist)) for s, dist in self._mass.items()]
        )
        return self._accept_mass()

    def update_span(self, cpt: CPT, span: int = 1) -> float:
        if span > 1:
            self._collapse()
        return self.update(cpt)

    def update_independent(self, marginal: SparseDistribution,
                           span: int = 1) -> float:
        self.updates_performed += 1
        if span > 1:
            self._collapse()
        totals = {s: sum(d.values()) for s, d in self._mass.items()}
        self._classify([
            (s, {y: total * py for y, py in marginal.items()})
            for s, total in totals.items()
        ])
        return self._accept_mass()

    def update_loop_span(self, loop_state: int, plain: CPT, cond: CPT,
                         span: int = 1) -> float:
        self.updates_performed += 1
        m = self._m
        qbit = 1 << loop_state
        propagated: List[Tuple[int, Dict[int, float]]] = []
        for s, dist in self._mass.items():
            mid = m.collapse(s)
            if s & qbit:
                kept = self._apply(cond, dist)
                full = self._apply(plain, dist)
                exited = {
                    y: max(full.get(y, 0.0) - kept.get(y, 0.0), 0.0)
                    for y in full
                }
                propagated.append((mid | qbit, kept))
                propagated.append((mid, exited))
            else:
                propagated.append((mid, self._apply(plain, dist)))
        self._classify(propagated)
        return self._accept_mass()
