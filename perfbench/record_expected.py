"""Record the reference outputs that perfbench/run.py checks against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Writes perfbench/expected.json with

- the verify-paper claim statuses and report sha256;
- the iso-relabel key classes of the catalog (which entries share a
  canonical key) and run.DISTINCT_PAIRS pairs of matroids that share
  their weight enumerators but not their keys;
- the minor-query has-minor verdicts, one character per query, of the
  first run.RECORDED_BATCHES batches of seeds 0..run.RECORDED_SEEDS-1,
  and the share of all these queries in each stratum (size, rank,
  verdict), which run.py weights its minor-query latencies by.

Nothing recorded depends on how a key is spelled, only on which
matroids share one.  Re-record only when a change is meant to alter
these outputs; minor-query takes about half an hour.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import islice

import workloads
from run import DISTINCT_PAIRS, EXPECTED, RECORDED_BATCHES, RECORDED_SEEDS, key_classes, stratum
from binmat.catalog import get, list_names
from binmat.iso import canonical_key
from binmat.structure import has_any_minor
from binmat.verify import report_to_json, run_verification


def rows_of(m) -> list:
    return [m.rank, m.size, list(m.matrix.rows)]


def stratum_shares(verdicts: dict[str, str]) -> dict[str, float]:
    """Share of the recorded minor-query queries in each stratum."""
    counts = Counter()
    for seed, marks in verdicts.items():
        queries = (m for batch in islice(workloads.minor_query_batches(int(seed)), RECORDED_BATCHES) for m in batch)
        counts.update(stratum(m, mark) for m, mark in zip(queries, marks))
    total = sum(counts.values())
    return {s: counts[s] / total for s in sorted(counts)}


def main() -> None:
    report = run_verification()
    pairs = workloads.same_profile_pairs(DISTINCT_PAIRS)
    targets = [get(name).matroid for name in workloads.MINOR_TARGETS]
    verdicts = {}
    for seed in range(RECORDED_SEEDS):
        batches = islice(workloads.minor_query_batches(seed), RECORDED_BATCHES)
        verdicts[str(seed)] = "".join(
            "1" if has_any_minor(m, targets) is not None else "0" for batch in batches for m in batch
        )
        print(f"minor-query seed {seed} recorded", flush=True)
    expected = {
        "verify-paper": {
            "report_sha256": hashlib.sha256(report_to_json(report).encode()).hexdigest(),
            "statuses": {c["id"]: c["status"] for c in report["claims"]},
        },
        "iso-relabel": {
            "key_classes": key_classes({name: canonical_key(get(name).matroid) for name in list_names()}),
            "distinct_pairs": [[rows_of(a), rows_of(b)] for a, b in pairs],
        },
        "minor-query": {"verdicts": verdicts, "stratum_shares": stratum_shares(verdicts)},
    }
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
