"""The binmat benchmark: three closed-loop, single-process workloads.

    python3 perfbench/run.py --workload verify-paper|iso-relabel|minor-query \
        --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ``src``).
Each workload sends its next operation only when the previous one has
finished, one at a time.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics
from an outside-in trace of the package's public functions, together
with the tracing overhead measured on the same inputs.  The last line
of standard output is one JSON object; the lines before it print the
same figures under their per-workload names.  See README.md beside this
file for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from speedclock import SpeedClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

# Fixed tail percentile per workload, chosen so that it lands inside a
# latency tier rather than on a boundary between tiers (README.md).
TAIL_PERCENTILE = {"verify-paper": 99.0, "iso-relabel": 96.4, "minor-query": 85.0}
SETUP_REPS = 24  # half before the timed loop, half after it
ISO_MIN_ROUNDS = 6  # fewer rounds would move iso-relabel's tail into another tier
DISTINCT_PAIRS = 8  # iso-relabel: same-profile, non-isomorphic pairs whose keys must differ
RECORDED_SEEDS = 30  # minor-query: verdicts are recorded for seeds 0..29 ...
RECORDED_BATCHES = 300  # ... and their first 300 batches; a run stops there
RUN_LIMIT_S = 170  # every run ends within this, children included


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Run:
    """Counters, metrics and report lines of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 1:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        print(f"FAILED: {why}", file=sys.stderr)

    def show(self, name: str, value, unit: str, note: str = "") -> None:
        self.lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


# ---------------------------------------------------------------------------
# Fresh interpreters


def child(run: Run, *args: str) -> dict:
    """Run fresh_child.py in a new interpreter and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "fresh_child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=run.remaining(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"fresh_child.py {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"fresh_child.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_times(run: Run, first: bool) -> list[float]:
    """Half of the fresh-interpreter set-up samples.  A run takes one half
    before its timed loop and one after, so that they do not all fall on
    one host speed.  The first half starts with an unmeasured warm-up
    that leaves the bytecode caches written."""
    if first:
        child(run, "setup")
    return [child(run, "setup")["setup_s"] for _ in range(SETUP_REPS // 2)]


# ---------------------------------------------------------------------------
# Shared measurement


def run_batches(batches, op, check, budget_s: float, min_ops: int = 0, max_batches: int | None = None,
                clock=time.perf_counter):
    """Apply ``op`` to every item of successive batches, one at a time.

    Only ``op`` is timed, by ``clock``.  ``check(item, output)`` runs untimed after
    each batch.  The loop stops at a batch boundary: after
    ``max_batches`` batches, or once ``min_ops`` operations ran and
    another batch like the last would overrun ``budget_s``.
    Returns (outputs, latencies in seconds, failed checks, batches).
    An exception raised by ``op`` is its output, and fails its check.
    """
    outputs, latencies, failed, count = [], [], 0, 0
    start = time.perf_counter()
    for batch in batches:
        b0 = time.perf_counter()
        done = []
        for item in batch:
            t0 = clock()
            try:
                out = op(item)
            except Exception as exc:  # counted as a failed operation
                out = exc
            latencies.append(clock() - t0)
            done.append((item, out))
        for item, out in done:
            if isinstance(out, Exception) or (check is not None and not check(item, out)):
                failed += 1
                print(f"FAILED: {item!r}: {out!r}", file=sys.stderr)
            outputs.append(out)
        count += 1
        now = time.perf_counter()
        if count == max_batches or (len(latencies) >= min_ops and (now - start) + (now - b0) > budget_s):
            break
    return outputs, latencies, failed, count


def latency_metrics(run: Run, latencies: list[float], names: tuple[str, str, str], noun: str, weights=None) -> None:
    """ops_per_s, op_p50_ms and op_tail_ms, reported under the workload's names too.
    ``weights``, if given, weight each latency in all three."""
    import workloads

    w = weights or [1] * len(latencies)
    rate = sum(w) / sum(x * y for x, y in zip(latencies, w))
    p50 = workloads.quantile(latencies, 50, weights) * 1000
    pct, tail, beyond = workloads.tail_percentile(latencies, TAIL_PERCENTILE[run.workload], weights)
    run.metrics["ops_per_s"] = (rate, "1/s")
    run.metrics["op_p50_ms"] = (p50, "ms")
    run.metrics["op_tail_ms"] = (tail * 1000, "ms")
    run.show(names[0], rate, "1/s", f"{len(latencies)} {noun}")
    run.show(names[1], p50, "ms")
    run.show(names[2], tail * 1000, "ms", f"p{pct:g} of {len(latencies)} samples, {beyond} beyond")


def finish_untraced(run: Run, setup: list[float], peak_rss_mb: float) -> None:
    run.metrics["setup_s"] = (statistics.median(setup), "s")
    run.metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    run.show("setup_s", run.metrics["setup_s"][0], "s", f"median of {len(setup)} fresh interpreters")
    run.show("peak_rss_mb", peak_rss_mb, "MB")
    run.show("error_rate", run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted}")


def finish_traced(run: Run, layers: dict, traced_s: float, untraced_s: float) -> None:
    run.metrics.update((k, tuple(v)) for k, v in layers.items())
    run.metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name, (value, unit) in run.metrics.items():
        run.show(name, value, unit)
    run.show("error_rate", run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted}")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Workloads


def verify_paper(run: Run, seconds: int) -> None:
    """Full run_verification(), each repetition in a fresh interpreter.
    Its input is the fixed claim registry, so the seed selects nothing."""
    expected = json.loads(EXPECTED.read_text())["verify-paper"]

    def checked(out: dict) -> dict:
        run.attempted += 1
        wrong = sorted(c for c, s in expected["statuses"].items() if out["statuses"].get(c) != s)
        extra = sorted(set(out["statuses"]) - set(expected["statuses"]))
        if wrong or extra or out["report_sha256"] != expected["report_sha256"]:
            run.fail(1, f"verify-paper: status mismatch {wrong + extra}, report sha256 {out['report_sha256']}")
        return out

    if run.trace:
        base = checked(child(run, "verify"))
        traced = checked(child(run, "verify", "--trace"))
        run.lines.append(f"verify-paper traced run (seed {run.seed} unused)")
        finish_traced(run, traced["layers"], traced["wall_s"], base["wall_s"])
        return

    setup = setup_times(run, first=True)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(checked(child(run, "verify")))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    setup += setup_times(run, first=False)
    times = [r["verify_s"] for r in reps]
    run.lines.append(f"verify-paper: {len(reps)} fresh-process run(s) (seed {run.seed} unused)")
    run.show("verify_s", statistics.median(times), "s", "at the reference speed")
    run.show("verify_wall_s", statistics.median(r["wall_s"] for r in reps), "s", "wall time")
    run.show("host_speed", statistics.median(r["host_speed"] for r in reps), "x")
    latency_metrics(run, times, ("verify_per_s", "verify_p50_ms", "verify_tail_ms"), "runs")
    finish_untraced(run, setup, max(r["peak_rss_mb"] for r in reps))


def key_classes(keys: dict[str, bytes]) -> list[list[str]]:
    """The catalog names grouped by equal key, in a canonical order."""
    groups: dict[bytes, list[str]] = {}
    for name, key in keys.items():
        groups.setdefault(key, []).append(name)
    return sorted(sorted(g) for g in groups.values())


def iso_relabel(run: Run, seconds: int) -> None:
    """canonical_key on fresh relabeled copies of every catalog entry."""
    import workloads
    from binmat import iso
    from binmat.catalog import get, list_names

    recorded = json.loads(EXPECTED.read_text())["iso-relabel"]
    setup = None if run.trace else setup_times(run, first=True)
    expected = {name: iso.canonical_key(get(name).matroid) for name in list_names()}
    # The keys must separate what they separated when recorded: the
    # catalog's isomorphism classes, and pairs that share every weight
    # enumerator.  This checks no key's spelling, only which ones agree.
    run.attempted += 1 + len(recorded["distinct_pairs"])
    if key_classes(expected) != recorded["key_classes"]:
        run.fail(1, "iso-relabel: catalog entries share keys other than the recorded ones")
    for a, b in recorded["distinct_pairs"]:
        if iso.canonical_key(workloads.from_rows(*a)) == iso.canonical_key(workloads.from_rows(*b)):
            run.fail(1, f"iso-relabel: non-isomorphic {a} and {b} share a key")

    # Called through the module, so that the tracer's wrapper is what runs.
    def op(item):
        return iso.canonical_key(item[1])

    def check(item, key):
        return key == expected[item[0]]

    budget = seconds / 2 if run.trace else seconds
    with SpeedClock() if not run.trace else nullcontext() as clock:
        keys, lat, failed, rounds = run_batches(
            workloads.iso_relabel_batches(run.seed), op, check, budget, min_ops=ISO_MIN_ROUNDS * len(expected),
            clock=clock.now if clock else time.perf_counter,
        )
    run.attempted += len(keys)
    if failed:
        run.fail(failed, "iso-relabel: relabeled key differs from the original's key")
    run.lines.append(f"iso-relabel seed {run.seed}: {rounds} rounds of {len(expected)} catalog entries")
    if run.trace:
        traced_run(run, workloads.iso_relabel_batches(run.seed), op, keys, lat, rounds)
        return
    setup += setup_times(run, first=False)
    run.show("host_speed", clock.speed(), "x")
    latency_metrics(run, lat, ("keys_per_s", "key_p50_ms", "key_tail_ms"), "keys")
    finish_untraced(run, setup, own_peak_rss_mb())


def stratum(m, verdict: str) -> str:
    """minor-query stratum of a query: size/rank/recorded verdict."""
    return f"{m.size}/{m.rank}/{verdict}"


def numbered(batches):
    """The batches with each item paired with its running index."""
    i = 0
    for batch in batches:
        yield list(enumerate(batch, i))
        i += len(batch)


def minor_query(run: Run, seconds: int) -> None:
    """has_any_minor(m, [S10, S10*]) on fresh random simple, cosimple m.

    Inputs come from seed mod RECORDED_SEEDS, so that every verdict of
    every run is checked against a recorded one."""
    import workloads
    from binmat import structure
    from binmat.catalog import get
    from binmat.iso import canonical_key
    from binmat.matroid import remove

    seed = run.seed % RECORDED_SEEDS
    expected = json.loads(EXPECTED.read_text())["minor-query"]
    recorded = expected["verdicts"].get(str(seed))
    per_batch = len(workloads.MINOR_CLASSES)
    if recorded is None or len(recorded) != RECORDED_BATCHES * per_batch:
        raise BenchError(f"expected.json holds no {RECORDED_BATCHES} recorded batches for minor-query seed {seed}")
    setup = None if run.trace else setup_times(run, first=True)
    targets = [get(name).matroid for name in workloads.MINOR_TARGETS]
    target_keys = [canonical_key(t) for t in targets]

    def op(item):
        return structure.has_any_minor(item[1], targets)

    def check(item, hit):
        # The verdict must be the recorded one, and a witness must replay:
        # the minor it names must be isomorphic to its target.
        i, m = item
        if (hit is not None) != (recorded[i] == "1"):
            return False
        if hit is None:
            return True
        idx, dels, cons = hit
        return canonical_key(remove(m, dels, cons)) == target_keys[idx]

    budget = seconds / 2 if run.trace else seconds
    with SpeedClock() if not run.trace else nullcontext() as clock:
        hits, lat, failed, batches = run_batches(
            numbered(workloads.minor_query_batches(seed)), op, check, budget, max_batches=RECORDED_BATCHES,
            clock=clock.now if clock else time.perf_counter,
        )
    run.attempted += len(hits)
    if failed:
        run.fail(failed, "minor-query: a verdict differs from the recorded one, or a witness does not replay")
    positive = sum(h is not None for h in hits) / len(hits)
    run.lines.append(
        f"minor-query seed {run.seed} (inputs of seed {seed}): {batches} of {RECORDED_BATCHES} recorded batches, "
        f"one per (n, rank) class {workloads.MINOR_CLASSES}; has-minor share {positive:.3f}"
    )
    if run.trace:
        traced_run(run, numbered(workloads.minor_query_batches(seed)), op, hits, lat, batches)
        return
    setup += setup_times(run, first=False)
    run.show("host_speed", clock.speed(), "x")
    # Weight each stratum by its share of all recorded queries, not of
    # this run's: otherwise the count of the rare slow strata (negative
    # n = 13, 3% of queries and a quarter of the time) moves every metric
    # from seed to seed.
    strata = [stratum(m, recorded[i]) for batch in islice(numbered(workloads.minor_query_batches(seed)), batches)
              for i, m in batch]
    counts = Counter(strata)
    weights = [expected["stratum_shares"][s] / counts[s] for s in strata]
    latency_metrics(run, lat, ("queries_per_s", "query_p50_ms", "query_tail_ms"), "queries", weights)
    finish_untraced(run, setup, own_peak_rss_mb())


def traced_run(run: Run, batches, op, untraced_out: list, untraced_lat: list[float], count: int) -> None:
    """Replay the first ``count`` batches (fresh objects, same inputs)
    under the tracer; the outputs must equal the untraced ones.  The
    inputs are built before the tracer is installed, so that building
    them is not traced."""
    from layer_trace import LayerTracer

    batches = list(islice(batches, count))
    tracer = LayerTracer()
    tracer.install()
    try:
        outputs, lat, _, _ = run_batches(batches, op, None, float("inf"), max_batches=count)
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(outputs, untraced_out))
    if mismatched or len(outputs) != len(untraced_out):
        run.fail(mismatched or 1, "traced outputs differ from untraced outputs")
    finish_traced(run, tracer.metrics(sum(lat)), sum(lat), sum(untraced_lat))


WORKLOADS = {"verify-paper": verify_paper, "iso-relabel": iso_relabel, "minor-query": minor_query}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "binmat" / "__init__.py").is_file():
        print(f"error: no binmat package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        WORKLOADS[args.workload](run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(run.lines))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
