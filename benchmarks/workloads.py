"""Workload construction and caching for the benchmark suite.

Datasets mirror §4.1, built by :mod:`repro.streams.synthetic` over its
small ``C0..Cn`` / ``Door`` / ``Room`` cell grid:

- **synthetic** (§4.1.1): snippet-concatenated streams with controlled
  data density and query-match rate;
- **routines** (§4.1.2): one true room entry among walk-past near-misses
  in a long background routine — the "real data" substitute.

Scaled down by default so the whole suite runs in minutes of pure
Python; set ``REPRO_BENCH_FULL=1`` for paper scale. Built databases are
cached on disk under ``benchmarks/.cache`` keyed by their parameters,
so repeated benchmark runs skip regeneration.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import Caldera
from repro.streams import Layout, routine_stream, synthetic_stream

CACHE_ROOT = os.environ.get(
    "REPRO_BENCH_CACHE",
    os.path.join(os.path.dirname(__file__), ".cache"),
)
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Snippets per synthetic stream (30 timesteps each).
SYNTHETIC_SNIPPETS = 1000 if FULL_SCALE else 100
#: Timesteps per routine trace (the paper's Pat stream is 1683).
ROUTINE_DURATION = 1683 if FULL_SCALE else 600
ROUTINE_PEOPLE = 8 if FULL_SCALE else 4

PAGE_SIZE = 8192

TARGET_ROOM = "Room"
TARGET_DOORWAY = "Door"

ENTERED_ROOM_QUERY = f"location={TARGET_DOORWAY} -> location={TARGET_ROOM}"
ENTERED_ROOM_KLEENE = (
    f"location={TARGET_DOORWAY} -> "
    f"(!location={TARGET_ROOM})* location={TARGET_ROOM}"
)


def _cache_dir(kind: str, params: Dict) -> Tuple[str, bool]:
    """Cache directory for one workload; returns (path, already_built)."""
    key = json.dumps(params, sort_keys=True)
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
    path = os.path.join(CACHE_ROOT, f"{kind}-{digest}")
    marker = os.path.join(path, "BUILT.json")
    if os.path.exists(marker):
        return path, True
    if os.path.exists(path):
        shutil.rmtree(path)  # partial build: start over
    os.makedirs(path, exist_ok=True)
    return path, False


def _mark_built(path: str, params: Dict) -> None:
    with open(os.path.join(path, "BUILT.json"), "w") as handle:
        json.dump(params, handle, indent=2, sort_keys=True)


def synthetic_db(
    density: float,
    match_rate: float = 1.0,
    num_snippets: Optional[int] = None,
    layouts: Sequence[Layout] = (Layout.SEPARATED,),
    seed: int = 7,
    mc_alpha: Optional[int] = None,
) -> Caldera:
    """A Caldera DB holding one synthetic stream per requested layout.

    Stream names are ``syn_{layout.value}``. Indexed with BT_C and BT_P
    (plus the MC index when ``mc_alpha`` is set).
    """
    num_snippets = num_snippets if num_snippets is not None else SYNTHETIC_SNIPPETS
    params = {
        "density": density,
        "match_rate": match_rate,
        "num_snippets": num_snippets,
        "layouts": sorted(layout.value for layout in layouts),
        "seed": seed,
        "mc_alpha": mc_alpha,
    }
    path, built = _cache_dir("synthetic", params)
    db = Caldera(path, page_size=PAGE_SIZE)
    if built:
        return db
    stream = synthetic_stream(
        "syn", num_snippets=num_snippets, density=density,
        match_rate=match_rate, seed=seed,
    )
    for layout in layouts:
        stream.name = f"syn_{layout.value}"
        db.archive(stream, layout=layout, mc_alpha=mc_alpha)
    _mark_built(path, params)
    return db


def routines_db(
    num_people: Optional[int] = None,
    duration: Optional[int] = None,
    seed: int = 11,
    layout: Layout = Layout.SEPARATED,
    mc_alpha: Optional[int] = None,
) -> Caldera:
    """A Caldera DB holding the routine ("real data") streams
    ``person0..personN``, one per person."""
    num_people = num_people if num_people is not None else ROUTINE_PEOPLE
    duration = duration if duration is not None else ROUTINE_DURATION
    params = {
        "num_people": num_people,
        "duration": duration,
        "seed": seed,
        "layout": layout.value,
        "mc_alpha": mc_alpha,
    }
    path, built = _cache_dir("routines", params)
    db = Caldera(path, page_size=PAGE_SIZE)
    if built:
        return db
    snippets = max(3, duration // 30)
    for person in range(num_people):
        stream = routine_stream(
            f"person{person}", num_snippets=snippets, seed=seed + person,
        )
        db.archive(stream, layout=layout, mc_alpha=mc_alpha)
    _mark_built(path, params)
    return db


def room_queries_for(variable: bool = False) -> List[Tuple[str, str]]:
    """(room, query text) pairs for the routine-stream figures.

    §4.2.2 runs 22 Entered-Room queries, one per room across the density
    spectrum; the synthetic grid has a single monitored room, so the
    list holds its one Entered-Room query (the Kleene variant when
    ``variable``).
    """
    return [(TARGET_ROOM, ENTERED_ROOM_KLEENE if variable
             else ENTERED_ROOM_QUERY)]
