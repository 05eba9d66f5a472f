"""Per-layer attribution for the traced run.

The traced run wraps the program's public entry points in
:class:`repro.obs.Tracer` spans from the outside: no file of the
program changes, and untraced runs install nothing. Each span is named
after the layer (the repo module) that owns the wrapped function, so a
span's *self time* (its duration minus its wrapped children) is time
spent in that layer's own code. The root spans are ``core.query`` and
``core.archive``; the self time of ``core.query`` is what the access
method and the engine spend outside every wrapped layer.

Names bound with ``from ... import`` are wrapped in the importing
module (``repro.core.engine.plan``, ``repro.core.engine.build_mc``, ...),
because patching the defining module would not reach the engine's own
reference.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.obs import Tracer

#: (module, attribute, span name). Attributes with a dot are class members.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.engine", "Caldera.query", "core.query"),
    ("repro.core.engine", "Caldera.archive", "core.archive"),
    ("repro.core.engine", "Caldera.context", "core.context"),
    ("repro.core.engine", "plan", "core.plan"),
    ("repro.core.engine", "write_stream", "streams.write"),
    ("repro.core.engine", "build_btc", "indexes.btc_build"),
    ("repro.core.engine", "build_btp", "indexes.btp_build"),
    ("repro.core.engine", "build_mc", "indexes.mc_build"),
    ("repro.lahar.reg", "Reg.__init__", "lahar.reg"),
    ("repro.lahar.reg", "Reg.initialize", "lahar.reg"),
    ("repro.lahar.reg", "Reg.update", "lahar.reg"),
    ("repro.lahar.reg", "Reg.update_span", "lahar.reg"),
    ("repro.lahar.reg", "Reg.update_loop_span", "lahar.reg"),
    ("repro.lahar.reg", "QueryMachine.__init__", "query.compile"),
    ("repro.probability.cpt", "CPT.from_bytes", "probability.decode"),
    ("repro.probability.cpt", "CPT.to_bytes", "probability.encode"),
    ("repro.probability.cpt", "CPT.compose", "probability.compose"),
    ("repro.probability.distribution", "SparseDistribution.from_bytes",
     "probability.decode"),
    ("repro.probability.distribution", "SparseDistribution.to_bytes",
     "probability.encode"),
    ("repro.indexes.mc", "MCIndex.compute_cpt", "indexes.mc"),
    ("repro.indexes.mc", "MCIndex.compute_conditioned_cpt", "indexes.mc"),
    ("repro.indexes.mc", "MCIndex.build", "indexes.mc_build"),
    ("repro.indexes.btc", "PredicateChronoCursor.seek", "indexes.cursor"),
    ("repro.indexes.btc", "PredicateChronoCursor.next", "indexes.cursor"),
    ("repro.indexes.btc", "PredicateChronoCursor.advance_to",
     "indexes.cursor"),
    ("repro.indexes.btp", "PredicateProbCursor.pop", "indexes.cursor"),
    ("repro.indexes.btp", "PredicateProbCursor.peek_prob", "indexes.cursor"),
    ("repro.storage.btree", "BTree.get", "storage.page"),
    ("repro.storage.btree", "BTree.bulk_load", "storage.bulk_load"),
    ("repro.storage.btree", "BTree.flush", "storage.commit"),
    ("repro.storage.btree", "Cursor.seek", "storage.page"),
    ("repro.storage.btree", "Cursor.first", "storage.page"),
    ("repro.storage.btree", "Cursor.next", "storage.page"),
)

#: Span names whose time is reported inclusively, as a phase of an
#: archive (their own children are attributed to layers separately).
PHASES = ("streams.write", "indexes.btc_build", "indexes.btp_build",
          "indexes.mc_build")


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def originals() -> List[object]:
    """The raw objects currently bound at every entry point."""
    out = []
    for module, attribute, _ in ENTRY_POINTS:
        owner, name = _owner(module, attribute)
        out.append(vars(owner)[name])
    return out


def _wrapped(raw, span_name: str, label: str, tracer: Tracer):
    span = tracer.span
    if isinstance(raw, classmethod):
        fn = raw.__func__

        @functools.wraps(fn)
        def method(cls, *args, **kwargs):
            with span(span_name, fn=label):
                return fn(cls, *args, **kwargs)
        return classmethod(method)

    @functools.wraps(raw)
    def wrapper(*args, **kwargs):
        with span(span_name, fn=label):
            return raw(*args, **kwargs)
    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in spans of ``tracer`` for the ``with``
    body, then restore the original objects whatever happens."""
    restore = []
    try:
        for module, attribute, span_name in ENTRY_POINTS:
            owner, name = _owner(module, attribute)
            raw = vars(owner)[name]
            restore.append((owner, name, raw))
            setattr(owner, name, _wrapped(raw, span_name, attribute, tracer))
        yield tracer
    finally:
        for owner, name, raw in reversed(restore):
            setattr(owner, name, raw)


class LayerTotals:
    """Self time and call counts per layer over many root spans."""

    def __init__(self) -> None:
        self.roots = 0
        self.root_ms = 0.0
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.phase_ms: Dict[str, float] = defaultdict(float)

    def add(self, root) -> None:
        self.roots += 1
        self.root_ms += root.wall_ms
        self._walk(root, inside=frozenset())

    def _walk(self, span, inside) -> None:
        child_ms = 0.0
        if span.name in PHASES and span.name not in inside:
            self.phase_ms[span.name] += span.wall_ms
            inside = inside | {span.name}
        for child in span.children:
            child_ms += child.wall_ms
            self._walk(child, inside)
        self.self_ms[span.name] += span.wall_ms - child_ms
        self.calls[span.attrs.get("fn", span.name)] += 1

    def layer_ms(self, prefix: str) -> float:
        return sum(ms for name, ms in self.self_ms.items()
                   if name == prefix or name.startswith(prefix + "."))

    def count(self, *labels: str) -> int:
        return sum(self.calls.get(label, 0) for label in labels)
