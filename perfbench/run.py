"""Whole-run benchmark of the HoPP reproduction: one workload, one seed.

Each measured run is a fresh single-threaded process (``child.py``),
launched one at a time, that goes from interpreter start to stored
results -- import, trace generation, machine build, replay, flush,
collect and result-cache store -- and a second fresh process that
serves the same points from the warm cache.  Host times are medians
over every unit that fits in ``--seconds``, each unit's times scaled to
a reference host speed by a ``calibrate.py`` process timed beside it;
simulated metrics are deterministic for a seed.

Before timing, both points are replayed once in this process through
the per-access oracle loop; every measured process must reproduce those
results byte for byte (and, at the goldens' seed, so must the oracle
match ``tests/data/goldens_v1.json``).

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics instead: calls, total and self host seconds of each
layer's public functions (wrapped from ``tracer.py``), the counts those
layers produced, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status
is non-zero when any run failed or mismatched.

Usage::

    python3 perfbench/run.py --workload hopp-kmeans --seed 1 --seconds 35 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import cases
from cases import ROOT
from tracer import SPAN_NAMES

CHILD = os.path.join(ROOT, "perfbench", "child.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
#: Median wall time of ``calibrate.py`` on the 2-vCPU host the bounds
#: were set on.  End-to-end host times are reported at this speed.
CALIBRATION_REF_S = 0.37
#: Fewest units a run reports a median over.
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: Scratch space (result caches) inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Children run single-threaded: no BLAS/OpenMP worker pools.
CHILD_ENV = dict(
    os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
)

#: Per-layer values read from the system under test's RunResult:
#: (metric, unit, attribute path).
RESULT_VALUES = [
    ("sim.accesses", "count", "accesses"),
    ("sim.mc_reads", "count", "mc_reads"),
    ("sim.mc_writes", "count", "mc_writes"),
    ("sim.breakdown.dram_hit_us", "us", "breakdown.dram_hit_us"),
    ("sim.breakdown.prefetch_hit_us", "us", "breakdown.prefetch_hit_us"),
    ("sim.breakdown.remote_fault_us", "us", "breakdown.remote_fault_us"),
    ("sim.breakdown.inflight_wait_us", "us", "breakdown.inflight_wait_us"),
    ("sim.breakdown.reclaim_us", "us", "breakdown.reclaim_us"),
    ("sim.compute_us", "us", "compute_us"),
    ("hopp.stt_observations", "count", "extra.stt_observations"),
    ("hopp.duplicates", "count", "prefetch_duplicates"),
    ("hopp.rejected", "count", "prefetch_rejected"),
    ("hopp.unresolved", "count", "hopp_hot_pages_unresolved"),
    ("hopp.rpt_cache_hit_rate", "ratio", "extra.rpt_cache_hit_rate"),
    ("hopp.hot_page_ratio", "ratio", "extra.hpd_hot_page_ratio"),
    ("kernel.minor_faults", "count", "minor_faults"),
    ("kernel.major_faults", "count", "remote_demand_reads"),
    ("kernel.swapcache_hits", "count", "swapcache_hits"),
    ("kernel.reclaim_pages", "count", "reclaim_pages"),
    ("kernel.reclaim_writebacks", "count", "reclaim_writebacks"),
    ("kernel.peak_resident_pages", "count", "peak_resident_pages"),
    ("baselines.prefetch_issued", "count", "prefetch_issued"),
    ("baselines.prefetch_wasted", "count", "prefetch_wasted"),
    ("net.fabric_reads", "count", "fabric_reads"),
    ("net.fabric_writes", "count", "fabric_writes"),
    ("net.timeouts", "count", "timeouts"),
    ("net.retries", "count", "retries"),
    ("net.dropped_prefetches", "count", "dropped_prefetches"),
    ("net.retry_latency_us", "us", "retry_latency_us"),
    ("cluster.node_crashes", "count", "node_crashes"),
    ("cluster.node_rejoins", "count", "node_rejoins"),
    ("cluster.pages_repaired", "count", "pages_repaired"),
    ("cluster.pages_lost", "count", "pages_lost"),
    ("cluster.demand_failovers", "count", "demand_failovers"),
    ("cluster.replica_writes", "count", "replica_writes"),
    ("cluster.repair_reads", "count", "repair_reads"),
    ("cluster.repair_writes", "count", "repair_writes"),
]


class RunFailed(Exception):
    """A measured process raised, timed out, or disagreed with the oracle."""


def _value(result, path: str) -> float:
    head, _, tail = path.partition(".")
    if head == "extra":
        return result.extra.get(tail, 0.0)
    value = getattr(result, head)
    return getattr(value, tail) if tail else value


def _run(cmd: list, what: str) -> str:
    """Run one process to completion; its standard output."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{what} process timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{what} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def host_speed() -> float:
    """CALIBRATION_REF_S over the wall time of one calibration process:
    above 1 when the host runs faster than the reference, below when
    slower."""
    t0 = time.monotonic()
    _run([sys.executable, CALIBRATE], "calibration")
    return CALIBRATION_REF_S / (time.monotonic() - t0)


def launch(args, mode: str, cache_dir: str, trace: bool) -> dict:
    """Run one child process to completion and return its payload."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, CHILD,
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--cache", cache_dir, "--t0", repr(t0),
    ]
    if trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    payload = json.loads(_run(cmd, mode).strip().splitlines()[-1])
    payload["run_s"] = payload["done"] - t0
    return payload


class Bench:
    """One invocation: the reference, the measured processes, the checks."""

    def __init__(self, args, workdir: str) -> None:
        self.args = args
        self.workdir = workdir
        self.case = cases.build_case(args.workload, args.seed, args.tiny)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = []
        self.engines = []
        self.results = []
        self.trace = []
        self.golden_checked = []
        self._dirs = 0

    def check_reference(self) -> None:
        """Replay through the oracle loop; compare with the goldens."""
        self.attempted += 1
        results, self.trace, self.engines = cases.oracle(self.case)
        self.results = results
        self.reference = [cases.canonical(result) for result in results]
        goldens = cases.golden_entries(self.case)
        self.golden_checked = sorted(goldens)
        for index, golden in goldens.items():
            got = json.dumps(results[index].to_dict(), sort_keys=True)
            if got != json.dumps(golden, sort_keys=True):
                self.failed += 1
                self.errors.append(f"point {index} differs from goldens_v1.json")

    def _fresh_cache(self) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"cache{self._dirs}")

    def _checked(self, payload: dict, mode: str, trace: bool) -> dict:
        if payload["results"] != self.reference:
            raise RunFailed(f"{mode}{' traced' if trace else ''} results differ from the oracle")
        if mode == "cold" and payload["engines"] != self.engines:
            raise RunFailed(
                f"{mode}{' traced' if trace else ''} replay engines {payload['engines']} "
                f"!= {self.engines}"
            )
        return payload

    def run_pair(self, trace: bool, warm: bool = True) -> tuple:
        """A cold process into a fresh cache, then (optionally) a warm
        process served from it; both checked against the reference."""
        cache_dir = self._fresh_cache()
        try:
            out = []
            for mode in ("cold", "warm") if warm else ("cold",):
                self.attempted += 1
                try:
                    out.append(self._checked(launch(self.args, mode, cache_dir, trace), mode, trace))
                except RunFailed:
                    self.failed += 1
                    raise
            return tuple(out)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def unit(self) -> dict:
        """One measured unit.  Untraced: a calibration process, then a
        cold/warm pair.  Traced: an untraced cold process, then a traced
        cold/warm pair."""
        if self.args.trace:
            (untraced,) = self.run_pair(False, warm=False)
            cold, warm = self.run_pair(True)
            return {"untraced": untraced, "cold": cold, "warm": warm}
        speed = host_speed()
        cold, warm = self.run_pair(False)
        return {"speed": speed, "cold": cold, "warm": warm}

    def measure(self) -> list:
        """Repeat the measured unit until ``--seconds`` have passed and
        at least MIN_SAMPLES units exist.  The reference replay has
        already imported every module the children load, so the first
        unit finds the bytecode and file caches warm."""
        units = []
        deadline = time.monotonic() + self.args.seconds
        while len(units) < MIN_SAMPLES or time.monotonic() < deadline:
            units.append(self.unit())
        return units

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, units) -> dict:
        """Host times are medians over units of each unit's time scaled
        to the reference host speed (see calibrate.py)."""
        sut, local = self.results
        med = statistics.median
        ok = (self.attempted - self.failed) / self.attempted
        return {
            "setup_s": (med((u["cold"]["ready"] - u["cold"]["t0"]) * u["speed"] for u in units), "s"),
            "run_s": (med(u["cold"]["run_s"] * u["speed"] for u in units), "s"),
            "accesses_per_s": (
                med(u["cold"]["accesses"] / (u["cold"]["done"] - u["cold"]["ready"]) / u["speed"] for u in units),
                "1/s",
            ),
            "warm_run_s": (med(u["warm"]["run_s"] * u["speed"] for u in units), "s"),
            "peak_rss_mb": (med(u["cold"]["rss_mb"] for u in units), "MB"),
            "sim_ct_ms": (sut.completion_time_us / 1000.0, "ms"),
            "norm_perf": (sut.normalized_performance(local.completion_time_us), "ratio"),
            "accuracy": (sut.accuracy, "ratio"),
            "coverage": (sut.coverage, "ratio"),
            "ok_frac": (ok, "ratio"),
        }

    def per_layer(self, units) -> dict:
        """Per-layer metrics from the traced pair with the median wall
        time, so its self times and the unattributed rest add up to its
        wall time exactly.  Host times here are as measured, unscaled."""
        middle = sorted(units, key=lambda u: u["cold"]["run_s"] + u["warm"]["run_s"])[(len(units) - 1) // 2]
        cold, warm = middle["cold"], middle["warm"]
        metrics = {}
        self_total = 0.0
        for name in SPAN_NAMES:
            calls, total, own = (c + w for c, w in zip(cold["spans"][name], warm["spans"][name]))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.s"] = (total, "s")
            metrics[f"{name}.self_s"] = (own, "s")
            self_total += own
        sut = self.results[0]
        for name, unit, path in RESULT_VALUES:
            metrics[name] = (_value(sut, path), unit)
        hpd = cold["hpd"]
        metrics["hopp.hpd_samples"] = (hpd["samples"], "count")
        metrics["hopp.hpd_writes_ignored"] = (hpd["writes_ignored"], "count")
        metrics["hopp.extractions"] = (hpd["extractions"], "count")
        extractions = hpd["extractions"]
        on_hot_page_s = metrics["hopp.on_hot_page.s"][0]
        metrics["hopp.us_per_extraction"] = (
            on_hot_page_s / extractions * 1e6 if extractions else 0.0, "us"
        )
        metrics["sim.host_us_per_access"] = (
            metrics["sim.replay.s"][0] / cold["accesses"] * 1e6, "us"
        )
        for key in ("hits", "misses", "stores"):
            metrics[f"exec.cache_{key}"] = (cold["cache"][key] + warm["cache"][key], "count")
        metrics["workloads.accesses"] = (len(self.trace), "count")
        writes = sum(1 for access in self.trace if len(access) == 3 and access[2])
        metrics["workloads.writes"] = (writes, "count")
        wall = cold["run_s"] + warm["run_s"]
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.unattributed_s"] = (wall - self_total, "s")
        # The part of the unattributed time spent before the workload
        # starts: interpreter start, imports, tracer installation.
        metrics["trace.startup_s"] = (
            cold["imported"] - cold["t0"] + warm["imported"] - warm["t0"], "s"
        )
        metrics["trace.overhead"] = (
            statistics.median(u["cold"]["run_s"] for u in units)
            / statistics.median(u["untraced"]["run_s"] for u in units),
            "ratio",
        )
        return metrics

    def facts(self, units) -> dict:
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        facts = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "engine": self.engines[0],
            "ct_local_engine": self.engines[1],
            "write_share": self.case.write_share,
            "units": len(units),
            "golden_checked": self.golden_checked,
        }
        if not self.args.trace:
            # Unscaled medians, for reading the scaled metrics against.
            facts["host_speed"] = statistics.median(u["speed"] for u in units)
            facts["raw_run_s"] = statistics.median(u["cold"]["run_s"] for u in units)
            facts["raw_warm_run_s"] = statistics.median(u["warm"]["run_s"] for u in units)
        return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    bench = Bench(args, workdir)
    units = []
    try:
        bench.check_reference()
        if not bench.failed:
            units = bench.measure()
    except RunFailed as exc:
        bench.errors.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still has its scratch directory there

    metrics = {}
    if units:
        metrics = bench.per_layer(units) if args.trace else bench.end_to_end(units)
        print("facts " + json.dumps(bench.facts(units), sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:>18.6g} {unit}")
    for error in bench.errors:
        print(f"error: {error}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.errors
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
