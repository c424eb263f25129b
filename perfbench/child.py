"""One measured process of the benchmark.

``--mode cold`` runs a workload's two points into an empty result cache;
``--mode warm`` serves them from the cache a cold process filled.  The
process prints one JSON object: CLOCK_MONOTONIC marks (shared by every
process on the host, so they compare with the launcher's ``--t0``), the
results, the replay engine each machine picked, and, with ``--trace``,
the per-span totals of the outside-in tracer.

Usage (normally launched by run.py)::

    python3 perfbench/child.py --workload hopp-kmeans --seed 1 \
        --mode cold --cache DIR --t0 T [--trace] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import cases
from repro.exec.cache import ResultCache
from repro.sim import runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("cold", "warm"))
    parser.add_argument("--cache", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    case = cases.build_case(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    imported = time.monotonic()

    # The one probe an untraced run carries: when each machine is ready,
    # and the machine itself (for its replay engine and HPD counters).
    machines = []
    ready = []
    build = runner.make_machine

    def make_machine(*a, **kw):
        machine = build(*a, **kw)
        ready.append(time.monotonic())
        machines.append(machine)
        return machine

    runner.make_machine = make_machine

    cache = ResultCache(args.cache)
    if args.mode == "cold":
        results = cases.run_cold(case, cache)
    else:
        results = cases.serve_warm(case, cache)
    done = time.monotonic()

    hpd = {"samples": 0, "writes_ignored": 0, "extractions": 0}
    if machines and machines[0].hopp is not None:
        detector = machines[0].hopp.hpd
        hpd = {
            "samples": detector.accesses,
            "writes_ignored": detector.writes_ignored,
            "extractions": detector.hot_pages,
        }
    payload = {
        "t0": args.t0,
        "imported": imported,
        "ready": ready[0] if ready else None,
        "done": done,
        "accesses": sum(result.accesses for result in results) if machines else 0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": [cases.canonical(result) for result in results],
        "engines": [cases.engine_of(machine) for machine in machines],
        "hpd": hpd,
        "cache": cache.stats(),
        "spans": tracer.stats if tracer is not None else None,
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
