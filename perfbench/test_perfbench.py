"""Tests of the benchmark itself: seeded inputs, the tail rule, the tracer."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layer_trace  # noqa: E402
import run  # noqa: E402
import speedclock  # noqa: E402
import workloads  # noqa: E402
from binmat import iso, structure  # noqa: E402


@pytest.mark.parametrize("workload", ["iso-relabel", "minor-query"])
def test_input_digest_depends_only_on_seed(workload):
    first = workloads.input_digest(workload, 7, batches=1)
    assert workloads.input_digest(workload, 7, batches=1) == first
    assert workloads.input_digest(workload, 8, batches=1) != first


def test_minor_query_inputs_are_simple_cosimple_in_every_class():
    from binmat.matroid import simplicity

    batch = next(workloads.minor_query_batches(3))
    assert sorted((m.size, m.rank) for m in batch) == sorted(workloads.MINOR_CLASSES)
    assert all(simplicity(m) == (True, True) for m in batch)


def test_expected_records_every_minor_query_seed_in_full():
    verdicts = json.loads(run.EXPECTED.read_text())["minor-query"]["verdicts"]
    assert sorted(map(int, verdicts)) == list(range(run.RECORDED_SEEDS))
    assert {len(v) for v in verdicts.values()} == {run.RECORDED_BATCHES * len(workloads.MINOR_CLASSES)}


def test_key_classes_ignore_how_keys_are_spelled():
    keys = {"a": b"x", "b": b"y", "c": b"x"}
    assert run.key_classes(keys) == [["a", "c"], ["b"]]
    assert run.key_classes({name: key * 2 for name, key in keys.items()}) == [["a", "c"], ["b"]]


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert workloads.tail_percentile(samples, 99.0) == (99.0, 990, 10)
    # Too few samples for p99: fall back to the highest percentile leaving ten beyond.
    assert workloads.tail_percentile(samples[:500], 99.0) == (98.0, 490, 10)
    assert workloads.tail_percentile(samples[:11], 99.0) == (9.0, 1, 10)
    # Ten samples or fewer: no percentile leaves ten beyond; report the maximum.
    assert workloads.tail_percentile([3.0], 99.0) == (100.0, 3.0, 0)
    assert workloads.tail_percentile(samples[:10], 50.0) == (100.0, 10, 0)
    # Weights weight the ranks: half the weight lies in the first 34 of 100.
    weights = [3] * 50 + [1] * 50
    assert workloads.tail_percentile(samples[:100], 50.0, weights) == (50.0, 34, 66)
    assert workloads.quantile(samples[:100], 50.0, weights) == 34


def test_iso_relabel_tail_stays_inside_one_tier():
    # Per-key latency comes in tiers by catalog entry: in every round of
    # 42 keys, PG(3,2)* and PG(3,2) are far slower than the other 40.
    # The tail percentile, with its fallback, must land inside that
    # two-key tier at every round count a run can reach, away from its
    # edges, where it would jump between tiers from run to run.
    for rounds in range(run.ISO_MIN_ROUNDS, 41):
        samples = [0.75, 0.65] + [0.02] * 40
        _, value, beyond = workloads.tail_percentile(samples * rounds, run.TAIL_PERCENTILE["iso-relabel"])
        assert value >= 0.65 and rounds <= beyond < 2 * rounds - 1, rounds


def test_speed_clock_leaves_out_its_kernel_and_restores_the_alarm():
    with speedclock.SpeedClock() as clock:
        t0, c0 = time.perf_counter(), clock.now()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, reading = time.perf_counter() - t0, clock.now() - c0
    assert len(clock.kernel_s) >= 4  # the first sample and at least three from the alarm
    busy = wall - sum(clock.kernel_s[1:])
    assert busy * clock.speed() / 3 < reading < 3 * busy * clock.speed()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_rebinds_imported_names_and_restores_them():
    original = iso.canonical_key
    tracer = layer_trace.LayerTracer()
    tracer.install()
    try:
        assert iso.canonical_key is not original
        # structure imported canonical_key by name; it must see the wrapper.
        assert structure.canonical_key is iso.canonical_key
    finally:
        tracer.uninstall()
    assert iso.canonical_key is original and structure.canonical_key is original


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    original = iso.canonical_key
    traced = dict(layer_trace.TRACED, iso=layer_trace.TRACED["iso"] + ["no_such_function"])
    monkeypatch.setattr(layer_trace, "TRACED", traced)
    with pytest.raises(LookupError, match="binmat.iso.no_such_function"):
        layer_trace.LayerTracer().install()
    assert iso.canonical_key is original


def test_inclusive_time_counts_only_the_outermost_frame():
    from binmat.catalog import get

    s8 = get("S8").matroid
    excluded = [get("P9").matroid, get("P9*").matroid]
    tracer = layer_trace.LayerTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        structure.theorem21_check(s8, {1, 2, 5, 6}, 3, excluded)  # recurses on the dual
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    st = tracer.stats["structure.theorem21_check"]
    assert st.calls == 2
    assert 0 < st.incl_s <= wall
    metrics = tracer.metrics(wall)
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in bench["per_layer"]}
    assert 0.9 < metrics["trace.self_coverage"][0] <= 1.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minor-query", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
