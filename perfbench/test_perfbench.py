"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.core import Caldera  # noqa: E402

SPEC = gen.StreamSpec("t", background=8, length=600, density=0.1)


def test_generator_is_deterministic_per_seed():
    a, b = gen.generate(SPEC, 3), gen.generate(SPEC, 3)
    assert a.marginals == b.marginals and a.cpts == b.cpts
    assert gen.digest(a) == gen.digest(b)
    assert gen.digest(gen.generate(SPEC, 4)) != gen.digest(a)


@pytest.mark.parametrize("change", [
    {"density": 0.2}, {"length": 630}, {"background": 9},
    {"shape": "bimodal"},
])
def test_digest_changes_when_a_parameter_changes(change):
    other = gen.StreamSpec(**{**SPEC.__dict__, **change})
    assert gen.digest(gen.generate(other, 3)) != \
        gen.digest(gen.generate(SPEC, 3))


@pytest.mark.parametrize("shape", ["uniform", "bimodal"])
def test_streams_are_consistent_with_the_asked_density(shape):
    spec = gen.StreamSpec("t", background=8, length=3000, density=0.1,
                          shape=shape)
    values = gen.generate(spec, 1)
    assert len(values.marginals) == 3000
    assert abs(values.relevant_steps - 300) <= 1
    gen.to_stream(values).validate()


@pytest.mark.parametrize("spec", [
    gen.StreamSpec("u", background=8, length=1500, density=0.1),
    gen.StreamSpec("b", background=8, length=1500, density=0.05,
                   shape="bimodal"),
    gen.StreamSpec("d", background=350, length=300, density=0.9),
], ids=lambda spec: spec.name)
def test_oracle_matches_the_naive_scan(tmp_path, spec):
    values = gen.generate(spec, 2)
    oracle = run.oracle_signals(values)
    with Caldera(str(tmp_path)) as db:
        db.archive(gen.to_stream(values))
        for qclass in ("fixed", "kleene"):
            text = run.QUERIES[qclass][0]
            naive = db.query(spec.name, text, method="naive").signal
            assert len(naive) == spec.length
            assert any(p > 0.01 for _, p in naive)
            for t, p in naive:
                assert oracle[qclass][t] == pytest.approx(p, abs=run.TOL)


@pytest.fixture()
def archived(tmp_path):
    db = Caldera(str(tmp_path / "db"))
    values = gen.generate(SPEC, 5)
    stream = gen.to_stream(values)
    db.archive(stream, mc_alpha=2)
    bench = run.Run(5, 1, False, str(tmp_path / "work"))
    bench.streams[stream.name] = ("separated", len(stream))
    yield db, bench, stream.name, values
    db.close()


def test_oracle_check_flags_a_perturbed_signal(archived):
    db, bench, name, values = archived
    oracle = run.oracle_signals(values)
    signals = {q: bench.query(db, name, q, False) for q in run.QUERIES}
    for qclass, signal in signals.items():
        bench.verify(name, qclass, oracle[qclass], signal)
    assert bench.failed == 0 and bench.attempted == 3

    for qclass, signal in signals.items():
        t, p = signal[-1]
        bench.verify(name, qclass, oracle[qclass],
                     signal[:-1] + [(t, p + 1e-6)])
    assert bench.failed == 3
    fixed = signals["fixed"]
    dropped = [(t, p) for t, p in fixed if p < max(q for _, q in fixed)]
    bench.verify(name, "fixed", oracle["fixed"], dropped)
    assert bench.failed == 4


def test_metric_names_are_well_formed_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"])
                for m in declared[key]] == list(table)
    assert set(run.QUERY_LAYERS) <= set(names)
    assert set(run.ARCHIVE_LAYERS) <= set(names)


def test_no_layer_wrapper_remains_after_a_traced_run(archived):
    db, bench, name, _ = archived
    before = layers.originals()
    bench.trace = True
    stream = gen.to_stream(gen.generate(SPEC, 6), "t2")
    bench.archive(db, stream, True, mc_alpha=2)
    for qclass in run.QUERIES:
        bench.query(db, name, qclass, True)
    assert bench.query_totals.roots == 3 and bench.archive_totals.roots == 1
    assert bench.query_totals.layer_ms("lahar.reg") > 0
    assert all(a is b for a, b in zip(layers.originals(), before))

    with pytest.raises(RuntimeError):
        with layers.installed(bench.tracer):
            assert any(a is not b
                       for a, b in zip(layers.originals(), before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(layers.originals(), before))


def test_traced_self_times_cover_the_root_spans(archived):
    db, bench, name, _ = archived
    bench.trace = True
    for qclass in run.QUERIES:
        bench.query(db, name, qclass, False)
        bench.query(db, name, qclass, True)
    metrics = bench.per_layer()
    assert metrics["trace.query_coverage_frac"] == pytest.approx(1.0)
    assert metrics["core.method_share.mc"] == pytest.approx(1 / 3)


def test_final_checks_flag_a_missing_index(archived, tmp_path):
    db, bench, name, _ = archived
    bench.final_checks(db)
    assert bench.failed == 0
    bench.archive(db, gen.to_stream(gen.generate(SPEC, 7), "no_mc"), False)
    bench.final_checks(db)
    assert bench.failed == 1 and "lacks ['mc']" in bench.errors[-1]


def test_timed_rows_are_scaled_by_the_probes_beside_them(archived,
                                                          monkeypatch):
    db, bench, name, _ = archived
    probes = iter([1.0, 3.0, 2.0, 2.0])
    monkeypatch.setattr(bench, "speed_probe", lambda: next(probes))
    bench.query(db, name, "fixed", False)
    row = bench.queries[-1]
    assert row["ms"] == pytest.approx(row["raw_ms"] * run.REF_PROBE_MS / 2)

    # The archives inside a set-up unit take the unit's probes, so no
    # probe runs inside the unit's timed region.
    stream = gen.to_stream(gen.generate(SPEC, 8), "t3")
    bench.setup_unit(bench.archive, db, stream, False)
    row = bench.archives[-1]
    assert row["ms"] == pytest.approx(row["raw_ms"] * run.REF_PROBE_MS / 2)
    assert bench.setup_s[-1] == pytest.approx(
        bench.raw_setup_s[-1] * run.REF_PROBE_MS / 2)
    assert next(probes, None) is None
