"""Fast self-test of the benchmark at tiny workload sizes.

Checks, for every workload:

* every metric ``BENCHMARK.json`` names is emitted, with the unit it
  declares and a direction, and nothing else is emitted;
* traced runs reproduce the untraced results byte for byte and replay on
  the same engine (``run.py`` fails the run otherwise);
* the traced layers' self times plus ``trace.unattributed_s`` add up to
  ``trace.wall_s``;
* a negative control: a measured result with one counter perturbed
  fails the output check.

Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import cases
import run
from cases import ROOT

EXPECTED_ENGINES = {
    "hopp-kmeans": ["batched-tapped", "batched-untapped"],
    "kv-writes": ["batched-tapped", "batched-untapped"],
    "crash-swap": ["oracle-armed", "batched-untapped"],
}


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def negative_control(workload: str) -> None:
    """Perturb one counter of a real measured result; the check must fail."""
    args = argparse.Namespace(workload=workload, seed=3, tiny=True)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
        bench = run.Bench(args, workdir)
        bench.check_reference()
        payload = run.launch(args, "cold", os.path.join(workdir, "cache"), trace=False)
        bench._checked(payload, "cold", False)
        result = json.loads(payload["results"][0])
        result["prefetch_issued"] += 1
        payload["results"][0] = json.dumps(result, sort_keys=True)
        try:
            bench._checked(payload, "cold", False)
            caught = False
        except run.RunFailed:
            caught = True
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass  # another run still has its scratch directory there
    if not caught:
        raise AssertionError(f"{workload}: a perturbed counter passed the output check")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        0: {m["name"]: m for m in spec["end_to_end"]},
        1: {m["name"]: m for m in spec["per_layer"]},
    }
    failures = []
    for workload in cases.WORKLOADS:
        engines = cases.oracle(cases.build_case(workload, 3, tiny=True))[2]
        if engines != EXPECTED_ENGINES[workload]:
            failures.append(f"{workload}: engines {engines} != {EXPECTED_ENGINES[workload]}")
        for trace in (0, 1):
            try:
                out = bench_run(workload, trace)
            except AssertionError as exc:
                failures.append(str(exc))
                continue
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: {out['attempted']} attempted, {out['failed']} failed")
            metrics = out["metrics"]
            want = declared[trace]
            if set(metrics) != set(want):
                failures.append(
                    f"{workload} trace={trace}: missing {sorted(set(want) - set(metrics))}, "
                    f"undeclared {sorted(set(metrics) - set(want))}"
                )
            for name, got in metrics.items():
                entry = want.get(name)
                if entry is None:
                    continue
                if got["unit"] != entry["unit"] or entry["better"] not in ("higher", "lower"):
                    failures.append(f"{workload}: {name} unit {got['unit']!r} vs {entry}")
            if trace:
                self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                gap = self_sum + metrics["trace.unattributed_s"]["value"] - metrics["trace.wall_s"]["value"]
                if abs(gap) > 1e-6:
                    failures.append(f"{workload}: self times + unattributed miss wall by {gap}")
        try:
            negative_control(workload)
        except AssertionError as exc:
            failures.append(str(exc))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
