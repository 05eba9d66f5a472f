"""Regenerate every figure and table of the paper.

Usage::

    python -m benchmarks.run_all            # scaled-down streams
    python -m benchmarks.run_all fig4_signal reg_kernel   # a subset
    REPRO_BENCH_FULL=1 python -m benchmarks.run_all   # paper scale

Runs ``generate()`` of every ``benchmarks/bench_*.py`` script, named by
its file stem without the ``bench_`` prefix, and writes one text + JSON
report per figure under ``benchmarks/results/``; EXPERIMENTS.md
summarizes them against the paper's claims. Any script that raises
fails the whole run. The run emits a ``results/run_all.manifest.json``
manifest — one span per figure — so two regeneration runs are diffable
with ``python -m repro.obs.report``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from typing import List

from repro.obs import MetricsRegistry

from .harness import finish_run, start_run

PREFIX = "bench_"


def figures() -> List[str]:
    """Every benchmark script's figure name, sorted."""
    here = os.path.dirname(os.path.abspath(__file__))
    return sorted(
        entry[len(PREFIX):-len(".py")] for entry in os.listdir(here)
        if entry.startswith(PREFIX) and entry.endswith(".py")
    )


def main(only=None) -> int:
    start = time.time()
    names = figures()
    unknown = sorted(set(only or ()) - set(names))
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from {names}",
              file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    manifest, tracer = start_run("run_all", registry=registry)
    done = []
    for name in names:
        if only and name not in only:
            continue
        module = importlib.import_module(f".{PREFIX}{name}", __package__)
        print(f"\n##### {name} " + "#" * 40)
        t0 = time.time()
        with tracer.span("figure", figure=name):
            module.generate()
        print(f"[{name}] done in {time.time() - t0:.1f}s")
        done.append(name)
    path = finish_run(manifest, tracer, registry=registry,
                      extra={"figures_done": done})
    print(f"\n{len(done)} figure(s) regenerated, 0 skipped "
          f"in {time.time() - start:.1f}s; reports in benchmarks/results/")
    print(f"run manifest: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(set(sys.argv[1:]) or None))
