"""Conditional probability tables.

A CPT maps each source state to a sparse row distribution over
destination states — the ``C_t(x_{t+1} | x_t)`` objects a Markovian
stream stores between timesteps (§2.1). Everything the access methods
do reduces to two operations:

- :meth:`CPT.apply` — propagate a vector one step (the Reg operator's
  inner loop);
- :meth:`CPT.compose` — the chain rule
  ``p(t_j | t_i) = Σ_k p(t_j | t_k) · p(t_k | t_i)`` (what the MC index
  precomputes so irrelevant gaps cost ``O(log gap)`` multiplications).

Representation
--------------
A CPT is three parallel NumPy arrays, ``src`` and ``dst`` (int64) and
``p`` (float64), one entry per stored transition, sorted by
``(src, dst)`` with no repeated pair and every ``p > 0``. The record
decoder fills them straight from the page bytes, and the Reg kernel
(:mod:`repro.lahar.reg`) consumes them as a gather plus one
``bincount``, so no per-row dict exists between the page and the
kernel. :meth:`row` and :meth:`rows` are read-only views derived from
the arrays on first use, for the HMM code and for tests.

Rows of a stream CPT are stochastic (sum to 1); masked variants
(:meth:`mask_destinations`, for predicate-conditioned Kleene loops,
§3.3.2) are deliberately *sub*-stochastic — the lost mass is exactly
the probability of leaving the loop.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

import numpy as np

from ..errors import StreamError
from ..storage.record import pack_pair_rows, unpack_pair_rows
from .distribution import SparseDistribution

_EMPTY_ROW = SparseDistribution()

RowLike = Union[SparseDistribution, Mapping[int, float]]


def _arrays(src, dst, p):
    """Canonical-order sequences as the ``(src, dst, p)`` arrays."""
    return (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
            np.asarray(p, dtype=np.float64))


class CPT:
    """A sparse source → (destination → probability) table, held as the
    sorted ``(src, dst, p)`` arrays described in the module docstring.
    Treat the arrays as read-only: a CPT is a value."""

    __slots__ = ("src", "dst", "p", "_view")

    def __init__(self, rows: Mapping[int, RowLike] = ()) -> None:
        src, dst, p = [], [], []
        for s, row in sorted(dict(rows).items()):
            for d, w in sorted(row.items()):
                if w < 0.0:
                    raise StreamError(
                        f"negative probability {w} for state {d!r}"
                    )
                if w > 0.0:
                    src.append(s)
                    dst.append(d)
                    p.append(w)
        self.src, self.dst, self.p = _arrays(src, dst, p)
        self._view = None

    @classmethod
    def _of(cls, src: np.ndarray, dst: np.ndarray, p: np.ndarray) -> "CPT":
        """Wrap arrays already in canonical form (sorted by
        ``(src, dst)``, no repeated pair, every ``p > 0``)."""
        out = cls.__new__(cls)
        out.src = src
        out.dst = dst
        out.p = p
        out._view = None
        return out

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, states: Iterable[int]) -> "CPT":
        """Each state maps to itself with probability 1."""
        ids = np.unique(np.asarray(list(states), dtype=np.int64))
        return cls._of(ids, ids.copy(), np.ones(len(ids)))

    # ------------------------------------------------------------------
    # Row access (derived views)
    # ------------------------------------------------------------------
    def _rows_view(self) -> Dict[int, SparseDistribution]:
        view = self._view
        if view is None:
            grouped: Dict[int, Dict[int, float]] = {}
            for s, d, w in zip(self.src.tolist(), self.dst.tolist(),
                               self.p.tolist()):
                grouped.setdefault(s, {})[d] = w
            view = self._view = {
                s: SparseDistribution(row) for s, row in grouped.items()
            }
        return view

    def row(self, src: int) -> SparseDistribution:
        """The destination distribution of one source (empty if absent)."""
        return self._rows_view().get(src, _EMPTY_ROW)

    def rows(self) -> Iterable[Tuple[int, SparseDistribution]]:
        """``(source, row)`` pairs in increasing source order."""
        return self._rows_view().items()

    def sources(self) -> FrozenSet[int]:
        return frozenset(self.src.tolist())

    def destinations(self) -> FrozenSet[int]:
        return frozenset(self.dst.tolist())

    def __contains__(self, src: int) -> bool:
        return src in self._rows_view()

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows_view())

    def __len__(self) -> int:
        return len(self._rows_view())

    def __bool__(self) -> bool:
        return len(self.p) > 0

    def num_entries(self) -> int:
        """Stored (source, destination) pairs."""
        return len(self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPT):
            return NotImplemented
        return (np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.p, other.p))

    def __repr__(self) -> str:
        return f"CPT({len(self)} rows, {self.num_entries()} entries)"

    def approx_equal(self, other: "CPT", tol: float = 1e-9) -> bool:
        for src in self.sources() | other.sources():
            if not self.row(src).approx_equal(other.row(src), tol=tol):
                return False
        return True

    # ------------------------------------------------------------------
    # Stochasticity
    # ------------------------------------------------------------------
    def _row_starts(self) -> np.ndarray:
        """Index of each row's first entry (rows are runs of ``src``)."""
        return np.flatnonzero(np.diff(self.src, prepend=-1))

    def is_stochastic(self, tol: float = 1e-6) -> bool:
        """True when every row sums to 1 (a proper CPT; masked variants
        are sub-stochastic and fail this on purpose)."""
        starts = self._row_starts()
        if not len(starts):
            return True
        mass = np.add.reduceat(self.p, starts)
        return bool(np.all(np.abs(mass - 1.0) <= tol))

    def normalize_rows(self) -> "CPT":
        """Each nonempty row rescaled to unit mass."""
        starts = self._row_starts()
        if not len(starts):
            return self
        mass = np.add.reduceat(self.p, starts)
        lengths = np.diff(starts, append=len(self.p))
        return CPT._of(self.src, self.dst, self.p / np.repeat(mass, lengths))

    # ------------------------------------------------------------------
    # The two core operations
    # ------------------------------------------------------------------
    def apply(self, dist: SparseDistribution) -> SparseDistribution:
        """Propagate a vector forward: ``out(y) = Σ_x v(x)·C(y|x)``.

        Mass on sources without a row is dropped (sub-stochastic
        behavior; stream CPTs cover their marginal's support, so
        nothing is lost on well-formed streams).
        """
        out: Dict[int, float] = {}
        rows = self._rows_view()
        for x, px in dist.items():
            row = rows.get(x)
            if row is None:
                continue
            for y, pyx in row.items():
                out[y] = out.get(y, 0.0) + px * pyx
        return SparseDistribution(out)

    def compose(self, later: "CPT") -> "CPT":
        """Chain this CPT with one applied *after* it: if ``self`` spans
        ``t_i → t_k`` and ``later`` spans ``t_k → t_j``, the result
        spans ``t_i → t_j`` by the chain rule.

        The join visits only stored entries: each entry ``(x, y, p)`` of
        ``self`` meets the row ``y`` of ``later``. (A dense block product
        over the tables' ids was slower on every benchmark shape, whose
        composed tables stay near nine entries.)"""
        if not len(self.p) or not len(later.p):
            return _EMPTY
        rows: Dict[int, list] = {}
        for y, z, q in zip(later.src.tolist(), later.dst.tolist(),
                           later.p.tolist()):
            rows.setdefault(y, []).append((z, q))
        a_src, a_dst, a_p = self.src.tolist(), self.dst.tolist(), self.p.tolist()
        src, dst, p = [], [], []
        i, n = 0, len(a_src)
        while i < n:
            x = a_src[i]
            acc: Dict[int, float] = {}
            while i < n and a_src[i] == x:
                w = a_p[i]
                for z, q in rows.get(a_dst[i], ()):
                    acc[z] = acc.get(z, 0.0) + w * q
                i += 1
            for z in sorted(acc):
                if acc[z] > 0.0:  # products can underflow to zero
                    src.append(x)
                    dst.append(z)
                    p.append(acc[z])
        return CPT._of(*_arrays(src, dst, p))

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def transpose(self) -> "CPT":
        """Edges reversed: ``out(x|y) = C(y|x)`` (unnormalized — rows of
        the result are likelihood columns, useful for backward passes)."""
        order = np.lexsort((self.src, self.dst))
        return CPT._of(self.dst[order], self.src[order], self.p[order])

    def _select(self, ids: np.ndarray, accept: Iterable[int]) -> "CPT":
        """The entries whose id in ``ids`` (``src`` or ``dst``) lies in
        ``accept``."""
        if not isinstance(accept, (set, frozenset)):
            accept = set(accept)
        keep = [i for i, x in enumerate(ids.tolist()) if x in accept]
        if len(keep) == len(ids):
            return self
        keep = np.array(keep, dtype=np.int64)
        return CPT._of(self.src[keep], self.dst[keep], self.p[keep])

    def mask_destinations(self, accept: Iterable[int]) -> "CPT":
        """Zero every transition into a state outside ``accept``
        (sub-stochastic conditioning for positive Kleene loops)."""
        return self._select(self.dst, accept)

    def mask_sources(self, accept: Iterable[int]) -> "CPT":
        """Drop every row whose source is outside ``accept``."""
        return self._select(self.src, accept)

    # ------------------------------------------------------------------
    # Serialization (storage record format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The record: a :func:`~repro.storage.record.pack_pair_rows`
        grouped pair list, rows by increasing source and each row's
        pairs by increasing destination."""
        return pack_pair_rows(self.src.tolist(), self.dst.tolist(),
                              self.p.tolist())

    @classmethod
    def from_bytes(cls, data: bytes, pos: int = 0) -> "CPT":
        """Decode a :meth:`to_bytes` record straight into the arrays.

        A truncated record, or one whose sources or destinations are not
        strictly increasing (:meth:`to_bytes` never writes one), raises
        :class:`~repro.errors.StorageError`; a negative weight raises
        :class:`~repro.errors.StreamError`; zero weights are dropped."""
        src, dst, p, _ = unpack_pair_rows(data, pos)
        if not all(map((0.0).__lt__, p)):
            for d, w in zip(dst, p):
                if w < 0.0:
                    raise StreamError(
                        f"negative probability {w} for state {d!r}"
                    )
            keep = [i for i, w in enumerate(p) if w > 0.0]
            src = [src[i] for i in keep]
            dst = [dst[i] for i in keep]
            p = [p[i] for i in keep]
        return cls._of(*_arrays(src, dst, p))


_EMPTY = CPT()


def validate_cpt(cpt: CPT, tol: float = 1e-6) -> None:
    """Raise :class:`~repro.errors.StreamError` unless every row is a
    probability distribution."""
    for src, row in cpt.rows():
        mass = row.total_mass
        if abs(mass - 1.0) > tol:
            raise StreamError(
                f"CPT row for source {src} has mass {mass:.9f}, expected 1"
            )
