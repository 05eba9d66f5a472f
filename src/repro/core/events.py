"""Event extraction from query-probability signals.

A Regular query yields a probability signal ``(t, p)`` (Fig 4). The
paper's applications detect *events* from this signal with "simple
thresholding (e.g. Bob is entering an office if p > 0.3)". This module
packages that last step:

- :func:`detect_events` — hysteresis thresholding: an event starts when
  the signal rises to ``enter`` and ends when it falls below ``exit``,
  merging jittery consecutive peaks into single detections;
- :func:`find_peaks` — local maxima above a floor, with a minimum
  separation (non-maximum suppression);
- :func:`expected_count` — the expected number of matching timesteps
  (the sum of the signal), a useful aggregate for dashboards.

All functions accept either a :class:`~repro.access.base.QueryResult`
or a raw ``[(t, p), ...]`` signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..access.base import QueryResult
from ..errors import QueryError


@dataclass(frozen=True)
class Event:
    """One detected event: a maximal above-threshold excursion."""

    start: int
    end: int
    peak_time: int
    peak_probability: float

    @property
    def duration(self) -> int:
        return self.end - self.start + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event[t={self.start}..{self.end}, "
            f"peak p={self.peak_probability:.3f} @ {self.peak_time}]"
        )


SignalLike = Union[QueryResult, Sequence[Tuple[int, float]]]


def _signal(source: SignalLike) -> List[Tuple[int, float]]:
    if isinstance(source, QueryResult):
        pairs = source.signal
    else:
        pairs = list(source)
    out = sorted(pairs)
    for t, p in out:
        if p < -1e-9 or p > 1.0 + 1e-6:
            raise QueryError(f"signal probability out of range at t={t}: {p}")
    return out


def detect_events(
    source: SignalLike,
    enter: float = 0.3,
    exit: Optional[float] = None,
    max_gap: int = 0,
) -> List[Event]:
    """Hysteresis thresholding of a query signal into events.

    Parameters
    ----------
    enter:
        An event opens when the probability reaches this value.
    exit:
        The event stays open until the probability drops below this
        (default ``enter / 2``); hysteresis absorbs jitter around the
        threshold.
    max_gap:
        Additionally merge events separated by at most this many
        timesteps (useful when the access method emits sparse signals).
    """
    if not 0.0 < enter <= 1.0:
        raise QueryError(f"enter threshold out of (0, 1]: {enter}")
    exit = exit if exit is not None else enter / 2.0
    if not 0.0 <= exit <= enter:
        raise QueryError(f"exit threshold must lie in [0, enter]: {exit}")
    signal = _signal(source)

    events: List[Event] = []
    open_start: Optional[int] = None
    peak_t = 0
    peak_p = -1.0
    last_t: Optional[int] = None

    def close(end_t: int) -> None:
        events.append(Event(open_start, end_t, peak_t, peak_p))

    for t, p in signal:
        if open_start is None:
            if p >= enter:
                open_start = t
                peak_t, peak_p = t, p
                last_t = t
        else:
            # Sparse signals: a missing timestep means probability 0
            # there, so a hole wider than max_gap closes the event.
            if last_t is not None and t - last_t > max_gap + 1:
                close(last_t)
                open_start = None
                if p >= enter:
                    open_start = t
                    peak_t, peak_p = t, p
                    last_t = t
                continue
            if p < exit:
                close(last_t if last_t is not None else t)
                open_start = None
            else:
                if p > peak_p:
                    peak_t, peak_p = t, p
                last_t = t
    if open_start is not None and last_t is not None:
        close(last_t)
    return events


def find_peaks(
    source: SignalLike,
    floor: float = 0.0,
    min_separation: int = 1,
) -> List[Tuple[int, float]]:
    """Local maxima above ``floor``, at least ``min_separation`` apart.

    Peaks are returned chronologically; when two candidate peaks are
    closer than ``min_separation``, the higher one survives.
    """
    if min_separation < 1:
        raise QueryError(f"min_separation must be >= 1: {min_separation}")
    signal = _signal(source)
    if not signal:
        return []
    values = dict(signal)

    candidates = []
    for i, (t, p) in enumerate(signal):
        if p <= floor:
            continue
        left = values.get(t - 1, 0.0)
        right = values.get(t + 1, 0.0)
        if p >= left and p > right:
            candidates.append((t, p))

    # Non-maximum suppression by probability.
    chosen: List[Tuple[int, float]] = []
    for t, p in sorted(candidates, key=lambda tp: -tp[1]):
        if all(abs(t - ct) >= min_separation for ct, _ in chosen):
            chosen.append((t, p))
    chosen.sort()
    return chosen


def expected_count(source: SignalLike) -> float:
    """The expected number of matching timesteps: ``sum_t p(t)``."""
    return sum(p for _, p in _signal(source))


@dataclass(frozen=True)
class ApproximationReport:
    """How well an approximate signal tracks an exact one (§4.3.2)."""

    peak_found: bool
    peak_time: int
    peak_exact: float
    peak_approx: float
    rel_error_at_peak: float
    max_raw_error: float
    mean_raw_error: float


def approximation_report(
    exact: SignalLike, approx: SignalLike
) -> Optional[ApproximationReport]:
    """Compare an approximate query signal against the exact one.

    Returns ``None`` when the exact signal is empty or all-zero (there
    is no peak to judge). ``peak_found`` reports whether the approximate
    signal's argmax coincides with the exact one — the property the
    paper highlights for the semi-independent method.
    """
    exact_map = dict(_signal(exact))
    approx_map = dict(_signal(approx))
    if not exact_map or max(exact_map.values()) <= 1e-12:
        return None
    peak_t = max(exact_map, key=exact_map.get)
    approx_peak_t = (
        max(approx_map, key=approx_map.get) if approx_map else None
    )
    peak_exact = exact_map[peak_t]
    peak_approx = approx_map.get(peak_t, 0.0)
    raw_errors = [
        abs(approx_map.get(t, 0.0) - p) for t, p in exact_map.items()
    ]
    return ApproximationReport(
        peak_found=approx_peak_t == peak_t,
        peak_time=peak_t,
        peak_exact=peak_exact,
        peak_approx=peak_approx,
        rel_error_at_peak=abs(peak_approx - peak_exact) / peak_exact,
        max_raw_error=max(raw_errors),
        mean_raw_error=sum(raw_errors) / len(raw_errors),
    )
