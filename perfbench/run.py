#!/usr/bin/env python3
"""Caldera's end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 10 --trace 0

Three workloads, each putting a different layer in charge of the time
(see ``perfbench/DESIGN.md`` for sizes and the layer -> metric table):

``scan-dense``    one n=352 stream at density 0.9, archived ``separated``
                  and ``packed(8)``; fixed (Alg 2) and Kleene (naive
                  fallback) queries. The Reg kernel and decode dominate.
``index-sparse``  four n=10 streams at density 0.02 (two uniform, two
                  bimodal) with BT_C, BT_P and MC, read through a
                  256-page pool; fixed, top-3 and Kleene queries (Alg 2,
                  3, 4). Index cursors, descents and pool misses matter.
``ingest``        each operation archives a new n=10 stream with every
                  index, then runs the three queries on it. The write
                  path (encode, bulk load, WAL commit, index builds)
                  dominates.

Load is a closed loop with one client: each call is issued when the
previous one returns, in one process and one thread. Every run makes a
fixed number of operations, derived from ``--seconds`` and a nominal
rate per workload but never fewer than 100 queries (so ``query_ms_p90``
has at least ten samples above it); query classes are interleaved
round-robin so host-speed drift hits all of them alike. Every timed
operation is checked against an oracle computed outside the timed
region from the generated values (see :func:`oracle_signals`).
Every timed call is bracketed by two host-speed probes and reported at
the reference host's speed (see :meth:`Run.host_speed`); raw times stay
in the run record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a
separate run that alternates untraced and traced rounds: only traced
rounds run with the layer wrappers of :mod:`layers` installed, and the
per-layer metrics come from them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
with per-class medians, host-drift probes, stream digests and (traced
runs) example span trees is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")

FIXED = "location=Door -> location=Room"
KLEENE = "location=Door -> (!location=Room)* location=Room"
#: Query class -> (query text, k).
QUERIES = {"fixed": (FIXED, None), "top3": (FIXED, 3), "kleene": (KLEENE, None)}
TOL = 1e-9
MIN_QUERIES = 100
#: Seconds after which a run stops issuing operations (a run must end
#: within 180 s).
DEADLINE_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: :class:`SpeedProbe`'s time on the reference host (a 2-CPU Xeon VM)
#: when nothing else contends for it. Timed calls are reported at that
#: host speed (see :meth:`Run.host_speed`).
REF_PROBE_MS = 1.7
#: The planner's ``planner.fallbacks{reason=}`` labels.
FALLBACK_REASONS = ("no_btc_coverage", "no_mc_index")

#: (name, unit, better): the metrics of ``--trace 0``.
END_TO_END = (
    ("query_ms_p50", "ms", "lower"),
    ("query_ms_p90", "ms", "lower"),
    ("query_steps_per_s", "1/s", "higher"),
    ("logical_reads_per_query", "pages", "lower"),
    ("archive_ms_p50", "ms", "lower"),
    ("archive_steps_per_s", "1/s", "higher"),
    ("bytes_per_step", "B", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

METHODS = ("naive", "btree", "topk", "mc")
#: Self-time metrics that together should account for all query time.
QUERY_LAYERS = (
    "lahar.reg_ms_per_query", "probability.decode_ms_per_query",
    "probability.compose_ms_per_query", "storage.page_ms_per_query",
    "indexes.mc_ms_per_query", "indexes.cursor_ms_per_query",
    "core.context_ms_per_query", "core.plan_ms_per_query",
    "query.compile_ms_per_query", "access.self_ms_per_query",
)
#: Self-time metrics that together should account for all archive time.
ARCHIVE_LAYERS = (
    "lahar.reg_ms_per_archive", "probability.decode_ms_per_archive",
    "probability.encode_ms_per_archive", "probability.compose_ms_per_archive",
    "storage.page_ms_per_archive", "storage.bulk_load_ms_per_archive",
    "storage.commit_ms_per_archive", "indexes.build_self_ms_per_archive",
    "streams.write_self_ms_per_archive", "core.archive_self_ms_per_archive",
)
#: (name, unit, better): the metrics of ``--trace 1``.
PER_LAYER = (
    ("lahar.reg_ms_per_query", "ms", "lower"),
    ("lahar.reg_us_per_update", "us", "lower"),
    ("lahar.reg_updates_per_query", "count", "lower"),
    ("lahar.reg_ms_per_archive", "ms", "lower"),
    ("probability.decode_ms_per_query", "ms", "lower"),
    ("probability.decode_us_per_record", "us", "lower"),
    ("probability.decode_ms_per_archive", "ms", "lower"),
    ("probability.encode_ms_per_archive", "ms", "lower"),
    ("probability.compose_ms_per_query", "ms", "lower"),
    ("probability.compose_calls_per_query", "count", "lower"),
    ("probability.compose_ms_per_archive", "ms", "lower"),
    ("storage.page_ms_per_query", "ms", "lower"),
    ("storage.physical_reads_per_query", "pages", "lower"),
    ("storage.pool_hit_rate", "fraction", "higher"),
    ("storage.evictions_per_query", "pages", "lower"),
    ("storage.page_ms_per_archive", "ms", "lower"),
    ("storage.bulk_load_ms_per_archive", "ms", "lower"),
    ("storage.commit_ms_per_archive", "ms", "lower"),
    ("storage.fsyncs_per_archive", "count", "lower"),
    ("storage.pages_written_per_archive", "pages", "lower"),
    ("indexes.mc_ms_per_query", "ms", "lower"),
    ("indexes.mc_lookups_per_query", "count", "lower"),
    ("indexes.mc_base_reads_per_query", "count", "lower"),
    ("indexes.cursor_ms_per_query", "ms", "lower"),
    ("indexes.topk_pruned_frac", "fraction", "higher"),
    ("indexes.btc_build_ms", "ms", "lower"),
    ("indexes.btp_build_ms", "ms", "lower"),
    ("indexes.mc_build_ms", "ms", "lower"),
    ("indexes.build_self_ms_per_archive", "ms", "lower"),
    ("streams.write_ms_per_archive", "ms", "lower"),
    ("streams.write_self_ms_per_archive", "ms", "lower"),
    ("core.context_ms_per_query", "ms", "lower"),
    ("core.plan_ms_per_query", "ms", "lower"),
    ("core.archive_self_ms_per_archive", "ms", "lower"),
    ("core.fallbacks_per_query", "count", "lower"),
) + tuple(
    (f"core.method_share.{m}", "fraction",
     "lower" if m == "naive" else "higher") for m in METHODS
) + (
    ("query.compile_ms_per_query", "ms", "lower"),
    ("access.self_ms_per_query", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.query_coverage_frac", "fraction", "higher"),
    ("trace.archive_coverage_frac", "fraction", "higher"),
)


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------
def signal_matches(oracle: Dict[int, float], signal, tol: float = TOL) -> bool:
    """Every emitted value equals the oracle's, and every timestep with
    nonzero oracle probability was emitted."""
    emitted = set()
    for t, p in signal:
        if abs(oracle.get(t, 0.0) - p) > tol:
            return False
        emitted.add(t)
    return all(t in emitted for t, p in oracle.items() if p > 1e-12)


def topk_matches(oracle: Dict[int, float], signal, k: int,
                 tol: float = TOL) -> bool:
    """The top-k answer holds the oracle's k best probabilities, each at
    a timestep where the oracle has that probability."""
    best = sorted((p for p in oracle.values() if p > 0.0), reverse=True)[:k]
    got = sorted((p for _, p in signal), reverse=True)
    if len(got) != len(best):
        return False
    if any(abs(oracle.get(t, 0.0) - p) > tol for t, p in signal):
        return False
    return all(abs(a - b) <= tol for a, b in zip(got, best))


def check(oracle: Dict[int, float], qclass: str, signal) -> bool:
    k = QUERIES[qclass][1]
    if k is None:
        return signal_matches(oracle, signal)
    return topk_matches(oracle, signal, k)


def oracle_signals(values) -> Dict[str, Dict[int, float]]:
    """Exact signals of every query class, computed from the generated
    values by a forward pass that shares no code with the program.

    The fixed query ends at ``t`` with probability
    ``P(x_{t-1}=Door, x_t=Room)``. The Kleene query ends at ``t`` when
    ``x_t=Room`` and a Door occurred after the last earlier Room; the
    pass carries that "armed" mass (Door seen, no Room since) forward
    through the CPTs. ``test_oracle_matches_the_naive_scan`` pins both
    to the program's naive scan (Alg 1) of the ``separated`` copy.
    """
    door, room = values.spec.background, values.spec.background + 1
    marginals = values.marginals
    fixed = {0: 0.0}
    kleene = {0: 0.0}
    armed = {door: marginals[0][door]} if door in marginals[0] else {}
    for t, table in enumerate(values.cpts, start=1):
        fixed[t] = marginals[t - 1].get(door, 0.0) * \
            table.get(door, {}).get(room, 0.0)
        pushed: Dict[int, float] = {}
        for x, px in armed.items():
            for y, pyx in table[x].items():
                pushed[y] = pushed.get(y, 0.0) + px * pyx
        kleene[t] = pushed.pop(room, 0.0)
        pushed.pop(door, None)
        if door in marginals[t]:
            pushed[door] = marginals[t][door]
        armed = pushed
    return {"fixed": fixed, "top3": fixed, "kleene": kleene}


# ----------------------------------------------------------------------
# Host-drift probes (run metadata, not metrics)
# ----------------------------------------------------------------------
def host_probe() -> Dict[str, float]:
    import numpy as np

    loops = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        loops.append((time.perf_counter() - t0) * 1000)
    a = np.arange(352 * 352, dtype=np.float64).reshape(352, 352) / 1e5
    a @ a
    prods = []
    for _ in range(20):
        t0 = time.perf_counter()
        a @ a
        prods.append((time.perf_counter() - t0) * 1000)
    return {"python_loop_ms": statistics.median(loops),
            "matmul_352_ms": statistics.median(prods)}


class SpeedProbe:
    """Times a fixed mix of work like the program's own: an interpreter
    loop, dict and ``struct`` record building (the write path's kind of
    work), and (4x352)x(352x352) products, the Reg kernel's shape on the
    dense stream, each against a different matrix so that the products
    stream from memory as the kernel's per-step CPTs do."""

    def __init__(self) -> None:
        import numpy as np

        self.vector = np.full((4, 352), 0.5)
        self.matrices = [np.full((352, 352), 1e-3 * (i + 1))
                         for i in range(8)]

    def __call__(self) -> float:
        """Milliseconds for one pass of the mix."""
        t0 = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        table = {}
        for i in range(1_500):
            table[i * 7919 % 10007] = (i, float(i), str(i))
        b"".join(struct.pack("<id", k, v[1]) for k, v in table.items())
        for matrix in self.matrices:
            self.vector @ matrix
        return (time.perf_counter() - t0) * 1000


def filesystem_of(path: str) -> str:
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            parts = line.split()
            if len(parts) > 2 and path.startswith(parts[1]) \
                    and len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return fstype


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """One benchmark run: timed operations, their checks, and metrics."""

    def __init__(self, seed: int, seconds: int, trace: bool,
                 work: str) -> None:
        from repro.obs import Tracer

        import layers

        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.layers = layers
        self.tracer = Tracer()
        self.speed_probe = SpeedProbe()
        self.query_totals = layers.LayerTotals()
        self.archive_totals = layers.LayerTotals()
        self.exemplars: Dict[str, dict] = {}
        self.queries: List[dict] = []
        self.archives: List[dict] = []
        self.traced_queries: List[dict] = []
        self.traced_archives: List[dict] = []
        self.setup_s: List[float] = []
        self.raw_setup_s: List[float] = []
        #: Rows recorded inside the open :meth:`host_speed` block.
        self._unscaled: Optional[List[dict]] = None
        self.digests: Dict[str, str] = {}
        self.errors: List[str] = []
        self.failed = 0
        self.attempted = 0
        #: stream name -> (layout, length), for rows and throughput.
        self.streams: Dict[str, tuple] = {}
        self.record: Dict[str, object] = {}
        self.started = time.perf_counter()
        self.deadline = self.started + DEADLINE_S

    # -- helpers ---------------------------------------------------------
    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def _traced(self, traced: bool):
        """Context for one timed call: the layer wrappers when traced."""
        return self.layers.installed(self.tracer) if traced else nullcontext()

    @contextmanager
    def host_speed(self):
        """Probe the host's speed just before and just after the block,
        then scale the ``ms`` of every row recorded in it to the
        reference host's speed: ``raw_ms * REF_PROBE_MS / mean(probes)``.

        The shared host runs this single-threaded, CPU-bound program 1.4
        to 2 times slower in phases lasting seconds to minutes, and the
        probe slows by about the same factor; scaling each call by the probes
        beside it measures the program rather than the phase it landed
        in. Raw times stay in the run record. The yielded dict receives
        ``scale``. A nested block defers to the outermost, so no probe
        falls inside a timed region.
        """
        box: Dict[str, float] = {}
        if self._unscaled is not None:
            yield box
            return
        rows = self._unscaled = []
        before = self.speed_probe()
        try:
            yield box
        finally:
            self._unscaled = None
        box["scale"] = 2 * REF_PROBE_MS / (before + self.speed_probe())
        for row in rows:
            row["ms"] = row["raw_ms"] * box["scale"]

    def setup_unit(self, build, *args):
        """Run one set-up unit, adding its time at reference host speed
        to ``setup_s``; returns what ``build`` returns."""
        with self.host_speed() as speed:
            t0 = time.perf_counter()
            out = build(*args)
            raw = time.perf_counter() - t0
        self.setup_s.append(raw * speed["scale"])
        self.raw_setup_s.append(raw)
        return out

    def _keep(self, row: dict) -> dict:
        if self._unscaled is not None:
            self._unscaled.append(row)
        return row

    def _fold(self, totals, key: str) -> None:
        for root in self.tracer.roots:
            totals.add(root)
            if key not in self.exemplars:
                self.exemplars[key] = root.to_dict()
        self.tracer.roots.clear()

    # -- timed operations ------------------------------------------------
    def archive(self, db, stream, traced: bool, record: bool = True,
                **options) -> None:
        layout = options.get("layout", "separated")
        fsyncs = db.env.metrics.counter("wal.fsyncs")
        writes = db.env.metrics.counter("pager.physical_writes")
        f0, w0 = fsyncs.value, writes.value
        self.attempted += 1
        with self.host_speed():
            with self._traced(traced):
                t0 = time.perf_counter()
                db.archive(stream, **options)
                ms = (time.perf_counter() - t0) * 1000
            self.streams[stream.name] = (layout, len(stream))
            if not record:
                return
            row = self._keep({
                "cls": f"archive/{layout}", "raw_ms": ms,
                "steps": len(stream), "at": t0 - self.started,
                "fsyncs": fsyncs.value - f0, "writes": writes.value - w0})
        if traced:
            self._fold(self.archive_totals, row["cls"])
            self.traced_archives.append(row)
        else:
            self.archives.append(row)

    def query(self, db, stream: str, qclass: str, traced: bool,
              record: bool = True):
        """Time one ``Caldera.query`` call; returns its signal (None when
        the call raised, which counts as a failed operation)."""
        text, k = QUERIES[qclass]
        fallbacks = [db.env.metrics.counter("planner.fallbacks", reason=r)
                     for r in FALLBACK_REASONS]
        f0 = sum(c.value for c in fallbacks)
        io0 = db.stats.snapshot()
        self.attempted += 1
        try:
            with self.host_speed() as speed, self._traced(traced):
                t0 = time.perf_counter()
                result = db.query(stream, text, k=k)
                ms = (time.perf_counter() - t0) * 1000
        except Exception:  # a failed operation is counted, not fatal
            self.fail(f"{stream}/{qclass}: {traceback.format_exc(limit=3)}")
            self.tracer.roots.clear()
            return None
        io = db.stats.delta(io0)
        if not record:
            return result.signal
        stats = result.stats
        layout, length = self.streams[stream]
        row = {
            "cls": f"{result.method}/{layout}",
            "method": result.method, "raw_ms": ms,
            "ms": ms * speed["scale"], "steps": length,
            "at": t0 - self.started,
            "logical": io.logical_reads, "physical": io.physical_reads,
            "evictions": io.evictions,
            "fallbacks": sum(c.value for c in fallbacks) - f0,
            "reg_ops": stats.reg_updates + stats.reg_initializations,
            "reg_updates": stats.reg_updates,
            "mc_lookups": stats.mc_lookups.lookups,
            "mc_base": stats.mc_lookups.base_cpts_read,
            "examined": stats.candidates_examined,
            "pruned": stats.candidates_pruned,
        }
        if traced:
            self._fold(self.query_totals, row["cls"])
            self.traced_queries.append(row)
        else:
            self.queries.append(row)
        return result.signal

    def verify(self, stream: str, qclass: str, oracle, signal) -> None:
        """Count a failed operation unless ``signal`` matches the oracle."""
        if signal is not None and not check(oracle, qclass, signal):
            self.fail(f"{stream}/{qclass}: signal disagrees with the oracle")

    def rounds(self, floor: int, per_second: float) -> int:
        rounds = max(floor, math.ceil(self.seconds * per_second))
        self.record["rounds"] = rounds
        return rounds

    def out_of_time(self) -> bool:
        """True once the run nears its 180-s time limit; the loops
        then stop early rather than overrun it (recorded in the run
        record, and the op count shows it)."""
        late = time.perf_counter() > self.deadline
        if late:
            self.record["stopped_early"] = True
        return late

    # -- workloads -------------------------------------------------------
    def scan_dense(self) -> None:
        from repro.core import Caldera

        from gen import StreamSpec, digest, generate, to_stream

        spec = StreamSpec("dense", background=350, length=1200, density=0.9)

        def build(path):
            values = generate(spec, self.seed)
            stream = to_stream(values, "dense_sep")
            db = Caldera(path)
            self.archive(db, stream, False, layout="separated")
            stream.name = "dense_packed"
            self.archive(db, stream, False, layout="packed")
            return db, values

        db, values = self.setup_unit(build, self.fresh_dir("dense"))
        self.digests[spec.name] = digest(values)
        self.record["relevant_steps"] = {spec.name: values.relevant_steps}
        oracle = oracle_signals(values)
        del values
        # Fixed queries (Alg 2) run about 20% faster than the Kleene
        # fallback scans; weighting them 3:1 keeps query_ms_p50 inside
        # the fixed class instead of in the gap between the two.
        streams = ("dense_sep", "dense_packed")
        kinds = [(s, "fixed") for s in streams] * 3 + \
            [(s, "kleene") for s in streams]
        try:
            self.read_loop(db, kinds, {s: oracle for s in streams},
                           self.rounds(math.ceil(MIN_QUERIES / 8), 1.6),
                           lambda r: build, every=1)
        finally:
            db.close()

    def index_sparse(self) -> None:
        from repro.core import Caldera

        from gen import StreamSpec, digest, generate, to_stream

        specs = [StreamSpec(f"{shape}_{tag}", background=8, length=15000,
                            density=0.02, shape=shape)
                 for shape in ("uniform", "bimodal") for tag in "ab"]

        def archive_one(db, spec):
            values = generate(spec, self.seed)
            self.archive(db, to_stream(values), False, mc_alpha=2)
            return values

        def build_one(spec):
            def build(path):
                db = Caldera(path)
                return db, archive_one(db, spec)
            return build

        path = self.fresh_dir("sparse")
        db = Caldera(path)
        relevant, oracles = {}, {}
        try:
            for spec in specs:
                values = self.setup_unit(archive_one, db, spec)
                self.digests[spec.name] = digest(values)
                relevant[spec.name] = values.relevant_steps
                oracles[spec.name] = oracle_signals(values)
            del values
        finally:
            db.close()
        self.record["relevant_steps"] = relevant
        # Reopen cold with a pool far smaller than one round's pages.
        db = Caldera(path, pool_pages=256)
        kinds = [(spec.name, q) for spec in specs for q in QUERIES]
        try:
            self.read_loop(db, kinds, oracles,
                           self.rounds(math.ceil(MIN_QUERIES / 12), 3),
                           lambda r: build_one(specs[r // 8 % len(specs)]),
                           every=8)
        finally:
            db.close()

    def read_loop(self, db, kinds, oracles, rounds: int, side_build,
                  every: int) -> None:
        """Query rounds; before every ``every``-th round, one more set-up
        unit (``side_build(round)(path)``) into a scratch database, so
        set-up and archive times sample the whole run, as the queries
        do, rather than only its first seconds."""
        for stream, qclass in kinds:  # warm-up round, checked, not recorded
            signal = self.query(db, stream, qclass, False, record=False)
            self.verify(stream, qclass, oracles[stream][qclass], signal)
        self.settle()
        for r in range(rounds):
            if self.out_of_time():
                break
            if r % every == 0:
                self.side_setup(side_build(r))
            traced = self.trace and r % 2 == 1
            for stream, qclass in kinds:
                signal = self.query(db, stream, qclass, traced)
                self.verify(stream, qclass, oracles[stream][qclass], signal)
        self.record["bytes_per_step"] = self.bytes_per_step(db)

    def side_setup(self, build) -> None:
        path = self.fresh_dir("side")
        side, _ = self.setup_unit(build, path)
        side.close()
        shutil.rmtree(path, ignore_errors=True)
        gc.collect()

    def ingest(self) -> None:
        from repro.core import Caldera

        from gen import StreamSpec, digest, generate, to_stream

        def spec(i):
            return StreamSpec(f"s{i:03d}", background=8, length=3000,
                              density=0.1)

        def build(path):
            values = generate(spec(-1), self.seed)
            db = Caldera(path)
            self.archive(db, to_stream(values), False, record=False,
                         mc_alpha=2)
            return db, values

        db, values = self.setup_unit(build, self.fresh_dir("ingest"))
        # Each operation runs the three query classes twice, so p90 rests
        # on twice the samples for little more than the archive's cost.
        ops = self.rounds(math.ceil(MIN_QUERIES / 6), 3)
        try:
            oracle = oracle_signals(values)
            warm = values.spec.name
            for qclass in QUERIES:
                signal = self.query(db, warm, qclass, False, record=False)
                self.verify(warm, qclass, oracle[qclass], signal)
            del values
            self.settle()
            for i in range(ops):
                if self.out_of_time():
                    break
                if i % 4 == 0:
                    self.side_setup(build)
                traced = self.trace and i % 2 == 1
                values = generate(spec(i), self.seed)
                self.digests[values.spec.name] = digest(values)
                oracle = oracle_signals(values)
                stream = to_stream(values)
                del values
                self.archive(db, stream, traced, mc_alpha=2)
                for qclass in list(QUERIES) * 2:
                    signal = self.query(db, stream.name, qclass, traced)
                    self.verify(stream.name, qclass, oracle[qclass], signal)
            self.attempted += 1
            self.final_checks(db)
            self.record["bytes_per_step"] = self.bytes_per_step(db)
        finally:
            db.close()

    def final_checks(self, db) -> None:
        """fsck the environment and check that the catalog lists every
        index built (outside the timed region)."""
        report = db.env.fsck()
        if not report.clean:
            self.fail("fsck: " + "; ".join(report.all_errors()[:5]))
            return
        want = {"btc:location", "btp:location", "mc"}
        for name in db.stream_names():
            missing = want - set(db.stream_meta(name).indexes)
            if missing:
                self.fail(f"catalog: {name} lacks {sorted(missing)}")
                return
        if set(db.stream_names()) != set(self.streams):
            self.fail(f"catalog: lists {len(db.stream_names())} streams, "
                      f"{len(self.streams)} were archived")

    @staticmethod
    def bytes_per_step(db) -> float:
        total = sum(db.storage_report().values())
        steps = sum(db.stream_meta(s).length for s in db.stream_names())
        return total / steps

    @staticmethod
    def settle() -> None:
        """Keep set-up garbage out of the timed region's collections."""
        gc.collect()
        gc.freeze()

    # -- metrics ---------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        q, a = self.queries, self.archives
        q_ms = [r["ms"] for r in q]
        return {
            "query_ms_p50": statistics.median(q_ms),
            "query_ms_p90": statistics.quantiles(q_ms, n=10)[-1],
            "query_steps_per_s": sum(r["steps"] for r in q)
            / (sum(q_ms) / 1000),
            "logical_reads_per_query": sum(r["logical"] for r in q) / len(q),
            "archive_ms_p50": statistics.median(r["ms"] for r in a),
            "archive_steps_per_s": sum(r["steps"] for r in a)
            / (sum(r["ms"] for r in a) / 1000),
            "bytes_per_step": self.record["bytes_per_step"],
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }

    def per_layer(self) -> Dict[str, float]:
        layers = self.layers
        Q, A = self.query_totals, self.archive_totals
        tq, ta = self.traced_queries, self.traced_archives
        nq, na = max(1, len(tq)), max(1, len(ta))

        def qsum(key):
            return sum(r[key] for r in tq)

        out = {
            "lahar.reg_ms_per_query": Q.layer_ms("lahar.reg") / nq,
            "lahar.reg_us_per_update": 1000 * Q.layer_ms("lahar.reg")
            / max(1, qsum("reg_ops")),
            "lahar.reg_updates_per_query": qsum("reg_updates") / nq,
            "lahar.reg_ms_per_archive": A.layer_ms("lahar.reg") / na,
            "probability.decode_ms_per_query":
                Q.layer_ms("probability.decode") / nq,
            "probability.decode_us_per_record":
                1000 * Q.layer_ms("probability.decode")
                / max(1, Q.count("CPT.from_bytes",
                                 "SparseDistribution.from_bytes")),
            "probability.decode_ms_per_archive":
                A.layer_ms("probability.decode") / na,
            "probability.encode_ms_per_archive":
                A.layer_ms("probability.encode") / na,
            "probability.compose_ms_per_query":
                Q.layer_ms("probability.compose") / nq,
            "probability.compose_calls_per_query":
                Q.count("CPT.compose") / nq,
            "probability.compose_ms_per_archive":
                A.layer_ms("probability.compose") / na,
            "storage.page_ms_per_query": Q.layer_ms("storage.page") / nq,
            "storage.physical_reads_per_query": qsum("physical") / nq,
            "storage.pool_hit_rate":
                1 - qsum("physical") / max(1, qsum("logical")),
            "storage.evictions_per_query": qsum("evictions") / nq,
            "storage.page_ms_per_archive": A.layer_ms("storage.page") / na,
            "storage.bulk_load_ms_per_archive":
                A.layer_ms("storage.bulk_load") / na,
            "storage.commit_ms_per_archive":
                A.layer_ms("storage.commit") / na,
            "storage.fsyncs_per_archive": sum(r["fsyncs"] for r in ta) / na,
            "storage.pages_written_per_archive":
                sum(r["writes"] for r in ta) / na,
            "indexes.mc_ms_per_query": Q.layer_ms("indexes.mc") / nq,
            "indexes.mc_lookups_per_query": qsum("mc_lookups") / nq,
            "indexes.mc_base_reads_per_query": qsum("mc_base") / nq,
            "indexes.cursor_ms_per_query":
                Q.layer_ms("indexes.cursor") / nq,
            "indexes.topk_pruned_frac":
                qsum("pruned") / max(1, qsum("examined")),
            "indexes.btc_build_ms": A.phase_ms["indexes.btc_build"] / na,
            "indexes.btp_build_ms": A.phase_ms["indexes.btp_build"] / na,
            "indexes.mc_build_ms": A.phase_ms["indexes.mc_build"] / na,
            "indexes.build_self_ms_per_archive":
                sum(A.self_ms[p] for p in layers.PHASES
                    if p.startswith("indexes.")) / na,
            "streams.write_ms_per_archive": A.phase_ms["streams.write"] / na,
            "streams.write_self_ms_per_archive":
                A.self_ms["streams.write"] / na,
            "core.context_ms_per_query": Q.layer_ms("core.context") / nq,
            "core.plan_ms_per_query": Q.layer_ms("core.plan") / nq,
            "core.archive_self_ms_per_archive":
                A.self_ms["core.archive"] / na,
            "core.fallbacks_per_query": qsum("fallbacks") / nq,
            "query.compile_ms_per_query":
                Q.layer_ms("query.compile") / nq,
            "access.self_ms_per_query": Q.self_ms["core.query"] / nq,
        }
        for m in METHODS:
            out[f"core.method_share.{m}"] = \
                sum(1 for r in tq if r["method"] == m) / nq
        traced_p50 = statistics.median(r["ms"] for r in tq)
        untraced_p50 = statistics.median(r["ms"] for r in self.queries)
        out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
        out["trace.query_coverage_frac"] = \
            sum(out[m] for m in QUERY_LAYERS) * nq / Q.root_ms
        out["trace.archive_coverage_frac"] = (
            sum(out[m] for m in ARCHIVE_LAYERS) * na / A.root_ms
            if A.roots else 0.0)
        return out

    def per_class(self) -> Dict[str, dict]:
        out: Dict[str, List[dict]] = {}
        for row in self.queries + self.archives:
            out.setdefault(row["cls"], []).append(row)
        return {cls: {"n": len(rows),
                      "median_ms": statistics.median(r["ms"] for r in rows),
                      "raw_median_ms":
                          statistics.median(r["raw_ms"] for r in rows)}
                for cls, rows in sorted(out.items())}


WORKLOADS = {
    "scan-dense": Run.scan_dense,
    "index-sparse": Run.index_sparse,
    "ingest": Run.ingest,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One client, one thread: BLAS worker threads on a small shared host
    # stall on the scheduler (a 352x352 product's p90 went 1.2 -> 16 ms)
    # and are slower than one thread for the Reg kernel's row-block
    # products. Set before NumPy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    run = Run(args.seed, args.seconds, bool(args.trace), work)
    started = time.perf_counter()
    probe_start = host_probe()
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_end = host_probe()

    if args.trace:
        metrics = run.per_layer()
        specs = PER_LAYER
    else:
        metrics = run.end_to_end()
        specs = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "filesystem": filesystem_of(WORK),
        "host_probe": {"start": probe_start, "end": probe_end},
        "per_class": run.per_class(),
        "raw_setup_s": run.raw_setup_s,
        # (seconds into the run, raw ms, ms at reference speed) of every
        # untraced timed operation: shows the host's slow phases.
        "timeline": [(round(r["at"], 3), round(r["raw_ms"], 3),
                      round(r["ms"], 3))
                     for r in sorted(run.queries + run.archives,
                                     key=lambda r: r["at"])],
        "digests": run.digests,
        "errors": run.errors,
        "metrics": metrics,
        **run.record,
    }
    if args.trace:
        record["layer_self_ms"] = {
            "query": dict(run.query_totals.self_ms),
            "archive": dict(run.archive_totals.self_ms),
        }
        record["exemplar_spans"] = run.exemplars
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, default=float)

    for cls, row in record["per_class"].items():
        print(f"# {cls:24s} n={row['n']:4d} median {row['median_ms']:.3f} ms"
              f" (raw {row['raw_median_ms']:.3f} ms)")
    for name, unit, _ in specs:
        print(f"# {name:40s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
