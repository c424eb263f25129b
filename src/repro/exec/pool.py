"""Deterministic parallel fan-out over independent sweep points.

Each :class:`~repro.exec.spec.RunSpec` is self-contained: the worker
rebuilds the workload, fabric, fault plan and cluster from the spec (and
their seeds), so a point's RunResult is a pure function of the spec.
That is what makes the pool safe — results are identical whether points
run serially, in any interleaving, or on any number of workers, and they
are returned in *input order*, never completion order.

Workers ship results back as ``RunResult.to_dict(full=True)`` dicts (the
same wire format the on-disk cache stores) and the parent rebuilds them
with :meth:`RunResult.from_dict`; the round trip is exact.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.constants import LOCAL_FRACTION
from repro.exec.cache import ResultCache, TraceCache
from repro.exec.spec import RunSpec
from repro.net.rdma import FabricConfig
from repro.sim import systems as systems_mod
from repro.sim.metrics import RunResult
from repro.workloads import build as build_workload

#: Per-worker-process trace cache: a worker that lands several points of
#: the same workload config generates its trace once.
_WORKER_TRACES: Optional[TraceCache] = None

logger = logging.getLogger(__name__)


def run_spec(spec: RunSpec, trace_cache: Optional[TraceCache] = None) -> RunResult:
    """Execute one spec in-process; the single source of truth for how a
    RunSpec maps onto :func:`repro.sim.runner.run`.

    The runner (and with it the machine simulator) is imported here, on
    the first point that has to run, so a sweep served entirely from
    the result cache never loads it."""
    from repro.sim import runner

    workload = build_workload(spec.workload, seed=spec.seed, **spec.workload_kwargs)
    trace = None
    if trace_cache is not None:
        trace = trace_cache.get(spec.workload, spec.seed, spec.workload_kwargs)
    system = (
        systems_mod.variant(spec.system, spec.system_kwargs)
        if spec.system_kwargs
        else spec.system
    )
    return runner.run(
        workload,
        system,
        spec.fraction,
        spec.fabric,
        spec.fault_plan,
        spec.cluster,
        check_invariants=spec.check_invariants,
        trace=trace,
        telemetry=spec.telemetry,
        memtier=spec.memtier,
        scrub=spec.scrub,
    )


def _worker(spec: RunSpec) -> Dict[str, object]:
    """Process-pool entry point: run one spec, return the wire dict."""
    global _WORKER_TRACES
    if _WORKER_TRACES is None:
        _WORKER_TRACES = TraceCache()
    return run_spec(spec, trace_cache=_WORKER_TRACES).to_dict(full=True)


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    trace_cache: Optional[TraceCache] = None,
    on_result: Optional[Callable[[int, RunSpec, RunResult, bool], None]] = None,
) -> List[RunResult]:
    """Run every spec, returning results aligned with ``specs``' order.

    ``jobs <= 1`` runs in-process (no pool, no serialization); higher
    values fan the cache misses out over a ProcessPool.  With a
    ``cache``, hits are served without running and fresh results are
    stored by the parent.  ``on_result(index, spec, result, was_cached)``
    fires per point in input order for progress reporting.
    """
    specs = list(specs)
    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[int] = []
    if cache is not None:
        for index, spec in enumerate(specs):
            hit = cache.get(spec)
            if hit is not None:
                results[index] = hit
            else:
                pending.append(index)
    else:
        pending = list(range(len(specs)))

    if pending:
        if jobs <= 1 or len(pending) == 1:
            local_traces = trace_cache if trace_cache is not None else TraceCache()
            for index in pending:
                results[index] = run_spec(specs[index], trace_cache=local_traces)
        else:
            # Per-run *time-series* telemetry rides the normal wire
            # format (to_dict(full=True) embeds it), but a full trace
            # timeline can be hundreds of thousands of events per point
            # — shipping that through the pool would dominate the very
            # wall-clock the pool exists to save.  Refuse loudly rather
            # than silently serialize gigabytes.
            tracing = [
                specs[index].label()
                for index in pending
                if specs[index].telemetry is not None
                and specs[index].telemetry.trace
            ]
            if tracing:
                raise ValueError(
                    "trace-timeline telemetry is not supported on the "
                    "parallel sweep path (trace events are too large for "
                    "the worker wire format); run with jobs=1 or disable "
                    f"TelemetryConfig.trace for: {', '.join(tracing)}"
                )
            # Oversubscribing cores buys nothing for CPU-bound workers
            # and costs fork + serialization overhead per extra process.
            cores = os.cpu_count() or 1
            if jobs > cores:
                logger.warning(
                    "clamping jobs=%d to %d (os.cpu_count())", jobs, cores
                )
            workers = min(jobs, cores, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                payloads = pool.map(_worker, [specs[index] for index in pending])
                for index, payload in zip(pending, payloads):
                    results[index] = RunResult.from_dict(payload)
        if cache is not None:
            for index in pending:
                cache.put(specs[index], results[index])

    if on_result is not None:
        cached = set(range(len(specs))) - set(pending)
        for index, spec in enumerate(specs):
            on_result(index, spec, results[index], index in cached)
    return results


def local_ct_spec(workload: str, seed: int, fabric: Optional[FabricConfig] = None,
                  workload_kwargs: Optional[Dict[str, object]] = None) -> RunSpec:
    """The CT_local reference point for a workload config (Section VI-A):
    ``noprefetch`` with enough local memory that nothing is reclaimed."""
    return RunSpec(
        workload=workload,
        system="noprefetch",
        fraction=LOCAL_FRACTION,
        seed=seed,
        workload_kwargs=dict(workload_kwargs or {}),
        fabric=fabric,
    )
