"""The unit of sweep execution: one fully-specified simulation point.

A :class:`RunSpec` captures *every* input that can change a RunResult —
it is the complete argument audit of :func:`repro.sim.runner.run`.  The
cache key is derived from :meth:`RunSpec.key_dict`, so any kwarg added
to ``runner.run`` must be added here too or cached results would
silently ignore it; ``tests/test_exec_cache.py`` cross-checks the two
signatures to keep that contract honest.

The one deliberate exception is ``runner.run``'s ``trace`` kwarg: the
engine only ever passes a materialized copy of the trace the workload
would generate itself (same name, same seed, same kwargs), so it cannot
change the result and must not change the key.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.cluster.cluster import ClusterConfig
from repro.integrity.config import ScrubConfig
from repro.memtier.tiers import MemtierConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.telemetry.config import TelemetryConfig

#: ``runner.run`` parameters covered by RunSpec (signature-audit anchor).
RUNNER_KWARGS_COVERED = frozenset(
    {
        "workload",
        "system",
        "local_memory_fraction",
        "fabric",
        "fault_plan",
        "cluster",
        "check_invariants",
        "trace",  # engine-internal; see module docstring
        "telemetry",
        "memtier",
        "scrub",
    }
)


@dataclass
class RunSpec:
    """One sweep point: (workload config, system, fraction, environment).

    Workloads and systems are referenced by registry *name* so a spec is
    cheap to ship to worker processes and stable to hash; the worker
    re-builds (and re-seeds) everything from the spec.
    """

    workload: str
    system: str = "hopp"
    fraction: float = 0.5
    seed: int = 1
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    #: HoppConfig knob overrides applied on top of the named system
    #: (dotted paths, see :func:`repro.sim.systems.variant`); the
    #: autotuner's way of walking HPD/STT/policy geometry.  Empty means
    #: the registered system verbatim.
    system_kwargs: Dict[str, object] = field(default_factory=dict)
    fabric: Optional[FabricConfig] = None
    fault_plan: Optional[FaultPlan] = None
    cluster: Optional[ClusterConfig] = None
    check_invariants: bool = False
    telemetry: Optional[TelemetryConfig] = None
    memtier: Optional[MemtierConfig] = None
    scrub: Optional[ScrubConfig] = None

    def key_dict(self) -> Dict[str, object]:
        """Canonical, JSON-stable projection of every result-affecting
        input.  ``None`` collapses to the runner's construction-time
        default so ``fabric=None`` and ``fabric=FabricConfig()`` hash
        identically (they run identically).  A ``fault_plan`` of
        ``FaultPlan()`` is *not* the same as ``None`` — an empty plan
        arms the recovery machinery — and the projection keeps them
        distinct.  So is ``telemetry``: probes never change simulator
        counters, but an instrumented RunResult *carries* its telemetry
        blob, so the cached artifact differs and must key separately."""
        fabric = self.fabric if self.fabric is not None else FabricConfig()
        cluster = self.cluster if self.cluster is not None else ClusterConfig()
        return {
            "workload": self.workload,
            "workload_kwargs": {
                str(k): self.workload_kwargs[k] for k in sorted(self.workload_kwargs)
            },
            "seed": self.seed,
            "system": self.system,
            # Every tunable knob must perturb the key, or a stale cache
            # entry would silently poison a design-space search.
            "system_kwargs": {
                str(k): self.system_kwargs[k] for k in sorted(self.system_kwargs)
            },
            "fraction": self.fraction,
            "fabric": asdict(fabric),
            "fault_plan": None if self.fault_plan is None else self.fault_plan.to_dict(),
            "cluster": asdict(cluster),
            "check_invariants": self.check_invariants,
            "telemetry": (
                None if self.telemetry is None else asdict(self.telemetry)
            ),
            # memtier=None means tiering off, which is NOT the same run
            # as any armed MemtierConfig (extra pool nodes, CXL link).
            "memtier": (
                None if self.memtier is None else asdict(self.memtier)
            ),
            # scrub=None means no patrol scrubber, which is NOT the same
            # run as any armed ScrubConfig (audit reads contend for
            # bandwidth, and scrub-only arms the recovery machinery).
            "scrub": None if self.scrub is None else asdict(self.scrub),
        }

    def label(self) -> str:
        """Short human-readable tag for progress lines and bench tables."""
        return f"{self.workload}/{self.system}@{self.fraction:g}"
