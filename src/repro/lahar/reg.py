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
  coordinates, and a CPT arrives as its sorted ``(src, dst, p)``
  arrays. One timestep is a gather, ``V[:, src] * p``, and one
  ``bincount`` that both sums the products per destination and
  regroups them into successor sets: a *scatter plan* maps each
  (row, destination column) to its flat slot in the next ``V``.
  Columns are classed once, at construction, by *symbol mask* (which
  predicates each stream state satisfies), and the plan is cached per
  tuple of live sets, so the per-step cost is O(sets × nnz) plus a
  fixed handful of NumPy calls, never O(n²) (a stream CPT at n = 352
  holds about 9 of 123,904 possible entries). The reference pays
  O(nnz) dict arithmetic *per live set* in Python.
* :class:`ReferenceReg` — a dict-of-dicts pure-Python implementation
  of the same semantics, kept slow and obvious as the test oracle.

Both support the span operations of Algorithms 4 & 5: collapsing over
irrelevant gaps (only the start state and negated-loop states survive
a timestep with zero mass on every indexable predicate), conditioned
loop spans, and the independence approximation.
"""

from __future__ import annotations

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
#: A scatter plan: flat target indices, successor sets, accepting rows.
_Plan = Tuple[np.ndarray, Tuple[int, ...], List[int]]


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
        masks = np.unique(mask_arr)
        self._group_masks = masks.tolist()
        #: Per-column group index and flat column ids, for the scatter.
        self._group_of = np.searchsorted(masks, mask_arr)
        self._col_ids = np.arange(self._n, dtype=np.int64)
        #: DFA set -> per-group destination signature (int64 array).
        self._sig: Dict[int, np.ndarray] = {}
        #: Tuple of source sets -> scatter plan (see :meth:`_plan`).
        self._plans: Dict[Tuple[int, ...], _Plan] = {}
        self._sets: Tuple[int, ...] = ()
        self._V = np.zeros((0, self._n))

    # -- state helpers -------------------------------------------------
    def _signature(self, set_bits: int) -> np.ndarray:
        """The per-group destination sets of one source set (cached)."""
        sig = self._sig.get(set_bits)
        if sig is None:
            step = self._m.step
            sig = self._sig[set_bits] = np.fromiter(
                (step(set_bits, mb) for mb in self._group_masks),
                np.int64, len(self._group_masks),
            )
        return sig

    def _plan(self, mids: Tuple[int, ...]) -> _Plan:
        """The scatter plan for mass rows held by the source sets
        ``mids``, cached per tuple: ``flat[i, y]`` is the flat index,
        into the successor matrix, of row ``i``'s mass landing on
        stream state ``y``; then the successor sets and the positions
        of the accepting ones."""
        plan = self._plans.get(mids)
        if plan is None:
            D = np.vstack([self._signature(s) for s in mids])
            dsts, inv = np.unique(D, return_inverse=True)
            flat = inv.reshape(D.shape)[:, self._group_of] * self._n \
                + self._col_ids
            sets = tuple(dsts.tolist())
            accepting = [i for i, s in enumerate(sets)
                         if self._m.is_accepting(s)]
            plan = self._plans[mids] = (flat, sets, accepting)
        return plan

    def _settle(self, V: np.ndarray, sets: Tuple[int, ...],
                accepting: List[int]) -> float:
        """Adopt ``V`` (one row per set of ``sets``) as the joint mass,
        dropping exactly-empty rows (mass is nonnegative, so a zero sum
        means identically zero); returns the accepting sets' mass."""
        mass = V.sum(axis=1).tolist()
        accepted = 0.0
        for i in accepting:
            accepted += mass[i]
        if 0.0 in mass:
            live = [i for i, m in enumerate(mass) if m > 0.0]
            V = V[live]
            sets = tuple(sets[i] for i in live)
        self._V = V
        self._sets = sets
        return accepted

    def _classify(self, mids: Sequence[int], W: np.ndarray) -> float:
        """Regroup the mass rows ``W`` (one per source set in ``mids``)
        into the successor DFA states given by the destination symbols:
        one ``bincount`` over the plan's flat indices."""
        if not mids:
            self._V = np.zeros((0, self._n))
            self._sets = ()
            return 0.0
        flat, sets, accepting = self._plan(tuple(mids))
        V = np.bincount(flat.ravel(), W.ravel(),
                        minlength=len(sets) * self._n)
        return self._settle(V.reshape(len(sets), self._n), sets, accepting)

    def _product(self, V: np.ndarray, cpt: CPT) -> np.ndarray:
        """Each row of ``V`` pushed through ``cpt``:
        ``out[i, y] = Σ_x V[i, x]·C(y|x)`` as a gather of the source
        columns and one ``bincount`` over ``row*n + dst``."""
        rows, n = V.shape
        flat = np.arange(0, rows * n, n)[:, None] + cpt.dst
        out = np.bincount(flat.ravel(), (V[:, cpt.src] * cpt.p).ravel(),
                          minlength=rows * n)
        return out.reshape(rows, n)

    def _collapse_rows(self) -> None:
        """Merge rows into their gap-collapsed DFA states."""
        acc: Dict[int, np.ndarray] = {}
        for i, s in enumerate(self._sets):
            mid = self._m.collapse(s)
            if mid in acc:
                acc[mid] = acc[mid] + self._V[i]
            else:
                acc[mid] = self._V[i].copy()
        self._sets = tuple(acc)
        self._V = np.vstack(list(acc.values())) if acc else \
            np.zeros((0, self._n))

    def _scatter(self, marginal: SparseDistribution) -> np.ndarray:
        ids, vals = marginal.as_arrays()
        vec = np.zeros(self._n)
        vec[ids] = vals
        return vec

    # -- API -----------------------------------------------------------
    def initialize(self, marginal: SparseDistribution) -> float:
        """Start a fresh run on the first timestep's marginal; returns
        the match probability at that timestep."""
        return self._classify([self._m.start_set],
                              self._scatter(marginal).reshape(1, -1))

    def update(self, cpt: CPT) -> float:
        """Consume one timestep via its incoming CPT; returns the match
        probability at the new timestep.

        The CPT product and the regrouping into successor sets share
        one ``bincount``: entry ``k`` of the CPT moves
        ``V[i, src_k]·p_k`` of row ``i`` to the plan's flat slot for
        ``(i, dst_k)``."""
        self.updates_performed += 1
        if not self._sets:
            return 0.0
        flat, sets, accepting = self._plan(self._sets)
        V = np.bincount(flat[:, cpt.dst].ravel(),
                        (self._V[:, cpt.src] * cpt.p).ravel(),
                        minlength=len(sets) * self._n)
        return self._settle(V.reshape(len(sets), self._n), sets, accepting)

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
        return self._classify(self._sets, np.outer(totals, probs))

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
        pushed = self._product(self._V, plain)
        looping = [i for i, s in enumerate(self._sets) if s & qbit]
        kept = pushed[looping] if cond is plain else \
            self._product(self._V[looping], cond)
        exited = np.maximum(pushed[looping] - kept, 0.0)
        mids: List[int] = []
        rows: List[np.ndarray] = []
        j = 0
        for i, s in enumerate(self._sets):
            mid = m.collapse(s)
            if s & qbit:
                mids.extend((mid | qbit, mid))
                rows.extend((kept[j], exited[j]))
                j += 1
            else:
                mids.append(mid)
                rows.append(pushed[i])
        return self._classify(mids, np.vstack(rows))


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
