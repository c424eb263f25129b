"""The benchmark's workloads: the runs each one makes, the inputs it
feeds them, and the reference replay its outputs are checked against.

Every workload is a system under test plus its CT_local point (the
all-local ``noprefetch`` run that Fig. 9's normalized performance
divides by), built from ``--seed`` alone.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    # Never fall back to some other installed copy of the program.
    raise SystemExit(f"perfbench: no repro package under {SRC}")
sys.path.insert(0, SRC)

from repro.cluster.cluster import ClusterConfig  # noqa: E402
from repro.exec.cache import ResultCache  # noqa: E402
from repro.exec.pool import execute, local_ct_spec  # noqa: E402
from repro.exec.spec import RunSpec  # noqa: E402
from repro.net.faults import FaultPlan  # noqa: E402
from repro.net.rdma import FabricConfig  # noqa: E402
from repro.sim import batchkernel, runner  # noqa: E402
from repro.sim import systems as systems_mod  # noqa: E402
from repro.sim.metrics import RunResult  # noqa: E402
from repro.workloads import build as build_workload  # noqa: E402

WORKLOADS = ("hopp-kmeans", "kv-writes", "crash-swap")

#: Share of kv-writes accesses the benchmark turns into writes.
WRITE_SHARE = 0.1

#: tests/test_goldens.py captured goldens_v1.json with workload and
#: fabric seed 7; its keys read ``workload|system|fraction|plan|nodes``.
GOLDEN_SEED = 7
GOLDEN_PATH = os.path.join(ROOT, "tests", "data", "goldens_v1.json")

#: Workload size arguments for the self-test; the benchmark proper runs
#: every app at its default size.
TINY_KWARGS = {
    "omp-kmeans": {"data_pages": 240, "iterations": 1},
    "kv-cache": {"objects": 120, "operations": 400},
    "quicksort": {"array_pages": 300},
}


@dataclass(frozen=True)
class Case:
    """One workload: ``specs`` holds the system under test, then its
    CT_local point.  A case with a ``write_share`` replays an injected
    trace through ``runner.run(trace=...)``; the others go through
    ``exec.execute``."""

    name: str
    seed: int
    specs: Tuple[RunSpec, RunSpec]
    #: Cache keys for the two results.  For an injected trace they carry
    #: the write share, so a stored result never answers for the
    #: unmodified workload.
    keys: Tuple[RunSpec, RunSpec]
    tiny: bool
    write_share: float = 0.0

    @property
    def injected(self) -> bool:
        return self.write_share > 0


def build_case(name: str, seed: int, tiny: bool = False) -> Case:
    """The case named ``name`` with every input drawn from ``seed``."""
    fabric = FabricConfig(seed=seed)

    def pair(workload: str, system: str, fraction: float, **env) -> Tuple[RunSpec, RunSpec]:
        kwargs = dict(TINY_KWARGS[workload]) if tiny else {}
        sut = RunSpec(
            workload=workload,
            system=system,
            fraction=fraction,
            seed=seed,
            workload_kwargs=kwargs,
            fabric=fabric,
            **env,
        )
        return sut, local_ct_spec(workload, seed, fabric, kwargs)

    if name == "hopp-kmeans":
        specs = pair("omp-kmeans", "hopp", 0.5)
        return Case(name, seed, specs, specs, tiny)
    if name == "kv-writes":
        specs = pair("kv-cache", "hopp", 0.5)
        keys = tuple(
            replace(spec, workload_kwargs={**spec.workload_kwargs, "bench_write_share": WRITE_SHARE})
            for spec in specs
        )
        return Case(name, seed, specs, keys, tiny, WRITE_SHARE)
    if name == "crash-swap":
        specs = pair(
            "quicksort",
            "fastswap",
            0.25,
            fault_plan=FaultPlan.crash_rejoin(seed),
            cluster=ClusterConfig(nodes=3, replication=2),
        )
        return Case(name, seed, specs, specs, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def workload_of(case: Case):
    spec = case.specs[0]
    return build_workload(spec.workload, seed=spec.seed, **spec.workload_kwargs)


def make_trace(case: Case, workload) -> List[tuple]:
    """The case's access trace.  kv-writes turns a seeded share of its
    accesses into ``(pid, vaddr, True)`` writes; reads stay 2-tuples."""
    trace = list(workload.trace())
    if not case.injected:
        return trace
    draw = random.Random(f"{case.name}:{case.seed}").random
    share = case.write_share
    return [(pid, vaddr, True) if draw() < share else (pid, vaddr) for pid, vaddr in trace]


def run_cold(case: Case, cache: ResultCache) -> List[RunResult]:
    """Run both points and store their results in ``cache``."""
    if not case.injected:
        return execute(case.specs, jobs=1, cache=cache)
    workload = workload_of(case)
    trace = make_trace(case, workload)
    results = [
        runner.run(workload, spec.system, spec.fraction, spec.fabric, trace=trace)
        for spec in case.specs
    ]
    for key, result in zip(case.keys, results):
        cache.put(key, result)
    return results


def serve_warm(case: Case, cache: ResultCache) -> List[RunResult]:
    """Serve both points from a freshly opened ``cache`` that
    ``run_cold`` filled; raise if any point would have to run."""
    if case.injected:
        results = [cache.get(key) for key in case.keys]
    else:
        results = execute(case.specs, jobs=1, cache=cache)
    if cache.hits != len(case.keys):
        raise RuntimeError(f"{case.name}: warm cache missed ({cache.stats()})")
    return results


def oracle(case: Case) -> Tuple[List[RunResult], List[tuple], List[str]]:
    """Reference results: both points replayed through the per-access
    oracle loop (``use_fast_path=False``), plus the trace fed to them
    and the engine each machine would pick on the default path."""
    workload = workload_of(case)
    trace = make_trace(case, workload)
    results = []
    engines = []
    for spec in case.specs:
        system = systems_mod.build(spec.system)
        machine = runner.make_machine(
            workload, system, spec.fraction, spec.fabric, spec.fault_plan, spec.cluster
        )
        engines.append(engine_of(machine))
        machine.run(trace, use_fast_path=False)
        machine.flush_memtier()
        machine.flush_recovery()
        results.append(runner.collect(machine, system.name, workload.name))
    return results, trace, engines


def golden_entries(case: Case) -> Dict[int, dict]:
    """goldens_v1.json entries that pin this case's points, by index.

    Only a default-size, unmodified trace at the goldens' seed can match."""
    if case.seed != GOLDEN_SEED or case.tiny or case.injected:
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        goldens = json.load(handle)
    found = {}
    for index, spec in enumerate(case.specs):
        plan = "None" if spec.fault_plan is None else "armed"
        nodes = spec.cluster.nodes if spec.cluster is not None else 1
        key = f"{spec.workload}|{spec.system}|{spec.fraction}|{plan}|{nodes}"
        if key in goldens:
            found[index] = goldens[key]
    return found


def engine_of(machine) -> str:
    """Which replay engine ``Machine.run`` picks, from public state."""
    if machine.health is not None:
        return "oracle-armed"
    if batchkernel.supports_batch_taps(machine):
        return "batched-tapped"
    if machine.hopp is None:
        return "batched-untapped"
    return "per-access-tapped"


def canonical(result: RunResult) -> str:
    """The byte form two results are compared in."""
    return json.dumps(result.to_dict(full=True), sort_keys=True)
