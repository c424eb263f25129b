"""Per-component time-share profiling of a simulation run.

Wraps one run in :mod:`cProfile` and buckets every function's *internal*
time (tottime — time in the function itself, not its callees, so the
shares sum to the total without double counting) into the simulator's
architectural components.  This is the baseline future perf PRs measure
against: ``repro run --profile ...`` prints the table, and
:func:`profile_spec` returns it as data.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.pool import run_spec
from repro.exec.spec import RunSpec
from repro.sim.metrics import RunResult

#: Component name -> path fragments that claim a frame (first match
#: wins, most-specific first).  Mirrors the subsystem layout in
#: docs/architecture.md.
COMPONENTS: List[Tuple[str, Tuple[str, ...]]] = [
    ("batch-kernel", ("repro/sim/batchkernel",)),
    ("kernel-swap", ("repro/kernel/", "repro/sim/machine", "repro/sim/sanitizer")),
    ("rdma-fabric", ("repro/net/", "repro/cluster/")),
    ("hopp-policy", ("repro/hopp/", "repro/baselines/")),
    ("cache-hierarchy", ("repro/memsim/",)),
    ("trace-gen", ("repro/workloads/",)),
    ("harness", ("repro/sim/", "repro/exec/", "repro/analysis/")),
]


@dataclass
class ProfileReport:
    """Where one run's wall-clock went, by architectural component."""

    total_s: float
    seconds: Dict[str, float] = field(default_factory=dict)
    result: Optional[RunResult] = None
    #: Unprofiled replay-loop throughput (accesses/sec) keyed by loop
    #: kind ("tapped", "untapped") — the hot-path regression signal.
    loop_acc_per_sec: Dict[str, float] = field(default_factory=dict)
    #: The :attr:`Machine.replay_engine` each probe ran, by loop kind.
    loop_engines: Dict[str, str] = field(default_factory=dict)
    #: Each probe's :attr:`Machine.replay_barriers`, by loop kind.
    loop_barriers: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def share(self, component: str) -> float:
        if self.total_s <= 0:
            return 0.0
        return self.seconds.get(component, 0.0) / self.total_s

    def rows(self) -> List[List[object]]:
        """(component, seconds, share) rows, largest first — ready for
        :func:`repro.analysis.report.render_table`."""
        ordered = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        return [
            [name, f"{secs:.3f}", f"{self.share(name):.1%}"]
            for name, secs in ordered
            if secs > 0.0
        ]


def classify(filename: str) -> str:
    """Map a profiled frame's filename onto a component bucket."""
    normalized = filename.replace("\\", "/")
    for name, fragments in COMPONENTS:
        for fragment in fragments:
            if fragment in normalized:
                return name
    return "other"


#: Accesses replayed per loop-throughput probe; enough to dominate the
#: per-run setup cost without stretching ``run --profile`` noticeably.
LOOP_PROBE_ACCESSES = 200_000


def loop_throughput(
    spec: RunSpec, max_accesses: int = LOOP_PROBE_ACCESSES
) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, Dict[str, int]]]:
    """Accesses/sec of the spec's replay loops, measured unprofiled,
    with the replay engine and the barrier counts of each probe.

    Replays (a prefix of) the spec's trace on a fresh machine through
    the loop its tap wiring selects — "tapped" for systems with an MC
    tap (HoPP and friends), "untapped" otherwise — and, for tapped
    systems, once more with the taps detached so both loop kinds are
    visible per system.  The untapped probe of a tapped system is a
    *throughput* number only (its simulation results are discarded; a
    detached tap never feeds the HPD).  The probe machines carry the
    spec's fault plan, cluster, patrol scrubber and
    ``check_invariants``, so an armed spec is probed on the engine (and
    with the timed barriers) it really replays with.  Telemetry is left
    out: probes observe, they never change the engine.
    """
    from repro.sim.runner import make_machine
    from repro.workloads import build

    workload = build(spec.workload, seed=spec.seed, **(spec.workload_kwargs or {}))
    trace = list(workload.trace())
    if len(trace) > max_accesses:
        trace = trace[:max_accesses]
    out: Dict[str, float] = {}
    engines: Dict[str, str] = {}
    barriers: Dict[str, Dict[str, int]] = {}

    def probe_machine():
        return make_machine(
            workload, spec.system, spec.fraction, spec.fabric,
            spec.fault_plan, spec.cluster,
            check_invariants=spec.check_invariants, scrub=spec.scrub,
        )

    probes = []
    if probe_machine().controller._taps:
        probes.append(("tapped", False))
        probes.append(("untapped", True))
    else:
        probes.append(("untapped", False))
    for label, detach in probes:
        machine = probe_machine()
        if detach:
            machine.controller._taps = []
        start = time.perf_counter()
        machine.run(trace)
        elapsed = time.perf_counter() - start
        out[label] = len(trace) / elapsed if elapsed > 0 else 0.0
        engines[label] = machine.replay_engine
        barriers[label] = dict(machine.replay_barriers)
    return out, engines, barriers


def profile_spec(spec: RunSpec) -> ProfileReport:
    """Run ``spec`` under the profiler and aggregate component shares."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_spec(spec)
    profiler.disable()
    stats = pstats.Stats(profiler)
    seconds: Dict[str, float] = {}
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        bucket = classify(filename)
        seconds[bucket] = seconds.get(bucket, 0.0) + tottime
        total += tottime
    loops, engines, barriers = loop_throughput(spec)
    return ProfileReport(
        total_s=total,
        seconds=seconds,
        result=result,
        loop_acc_per_sec=loops,
        loop_engines=engines,
        loop_barriers=barriers,
    )
