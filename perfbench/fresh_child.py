"""One measurement in a fresh interpreter; prints one JSON line.

    python3 fresh_child.py setup            # import binmat.cli + load the catalog
    python3 fresh_child.py verify [--trace] # one full run_verification()

The benchmark starts this with ``src`` on PYTHONPATH.  A fresh process
per measurement keeps the caches that catalog ``Matroid`` objects carry
(canonical keys, in-class memos) from leaking between repetitions.
Untraced times are read from a SpeedClock (speedclock.py); ``wall_s``
is wall time less the clock's own kernel.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from speedclock import SpeedClock


def _setup() -> dict:
    with SpeedClock() as clock:
        t0 = clock.now()
        import binmat.cli  # noqa: F401
        from binmat.catalog import get, list_names

        for name in list_names():
            get(name)
        return {"setup_s": clock.now() - t0}


def _verify(trace: bool) -> dict:
    from binmat.verify import report_to_json, run_verification

    out = {}
    if trace:
        from layer_trace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        t0 = time.perf_counter()
        report = run_verification()
        wall = time.perf_counter() - t0
        tracer.uninstall()
        out["layers"] = tracer.metrics(wall)
    else:
        with SpeedClock() as clock:
            t0, c0 = time.perf_counter(), clock.now()
            report = run_verification()
            out["verify_s"] = clock.now() - c0
            wall = time.perf_counter() - t0 - sum(clock.kernel_s[1:])
        out["host_speed"] = clock.speed()
    return out | {
        "wall_s": wall,
        "report_sha256": hashlib.sha256(report_to_json(report).encode()).hexdigest(),
        "statuses": {c["id"]: c["status"] for c in report["claims"]},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        out = _setup()
    elif argv[:1] == ["verify"] and argv[1:] in ([], ["--trace"]):
        out = _verify(argv[1:] == ["--trace"])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
