"""Run metrics — Section VI-A.

* **Accuracy** — prefetched-page hits / total prefetched pages.
* **Coverage** — prefetch hits / (remote demand requests + prefetch hits).
* **Timeliness** — time from a prefetched page's arrival to its first hit.
* **Normalized performance** — CT_local / CT_system.
* **Speedup vs a baseline** — 1 - CT_system / CT_baseline (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from repro.common.stats import Histogram, safe_ratio
from repro.common.types import FaultBreakdown

# ``field(metadata=...)`` markers: the ``to_dict`` section a RunResult
# field is written to (a field without one sits at the top level), an
# optional wire ``key`` when it differs from the field name, or
# ``manual`` for the fields to_dict/from_dict serialize by hand.
_CLUSTER = {"section": "cluster"}
_RECOVERY = {"section": "recovery"}
#: Written only under ``to_dict(full=True)``: adding default keys would
#: break the golden byte-identity contract.
_MACHINE = {"section": "machine"}
_MANUAL = {"manual": True}

#: Hand-handled sections that are absent from ``to_dict`` output while
#: None, keeping goldens byte-identical.
_OPTIONAL_SECTIONS = ("telemetry", "scenario", "memtier", "integrity")


@dataclass
class RunResult:
    """Everything measured in one simulated run of one workload."""

    system: str
    workload: str
    completion_time_us: float = 0.0
    accesses: int = 0
    mc_reads: int = 0
    minor_faults: int = 0
    #: Demand reads that had to go to the remote node (major faults that
    #: missed every local copy).
    remote_demand_reads: int = 0
    #: Prefetch hits split by where the hit landed (Figure 11's split).
    prefetch_hit_swapcache: int = 0
    prefetch_hit_inflight: int = 0
    prefetch_hit_dram: int = 0
    prefetch_issued: int = 0
    prefetch_wasted: int = 0
    issued_by_tier: Dict[str, int] = field(default_factory=dict)
    hits_by_tier: Dict[str, int] = field(default_factory=dict)
    breakdown: FaultBreakdown = field(default_factory=FaultBreakdown, metadata=_MANUAL)
    timeliness: Optional[Histogram] = field(default=None, metadata=_MANUAL)
    fabric_reads: int = 0
    fabric_writes: int = 0
    reclaim_pages: int = 0
    peak_resident_pages: int = 0
    #: Fault-injection observability (all exactly 0 without a fault plan).
    #: Injected transfer timeouts observed (demand, prefetch, and write).
    timeouts: int = 0
    #: Retry attempts on synchronous transfers (demand reads, writebacks).
    retries: int = 0
    #: Critical-path latency spent waiting out timeouts and backoff.
    retry_latency_us: float = 0.0
    #: Prefetch reads dropped by injected faults (never retried).
    dropped_prefetches: int = 0
    dropped_by_tier: Dict[str, int] = field(default_factory=dict)
    #: Simulated time the prefetch circuit breaker spent open/half-open.
    degraded_mode_us: float = 0.0
    breaker_opens: int = 0
    #: Prefetch requests suppressed at the breaker gate while degraded.
    prefetch_suppressed: int = 0
    #: Remote-pool topology (1/interleave/1 = the single-node model).
    remote_nodes: int = field(default=1, metadata=_CLUSTER)
    placement: str = field(default="interleave", metadata=_CLUSTER)
    replication: int = field(default=1, metadata=_CLUSTER)
    #: Demand reads answered by a replica after the primary was found
    #: restarting (requires replication > 1).
    demand_failovers: int = field(default=0, metadata=_CLUSTER)
    #: Reclaim writebacks re-routed to a live node mid-retry.
    writeback_reroutes: int = field(default=0, metadata=_CLUSTER)
    #: Extra WRITEs spent keeping replicas (0 when replication == 1).
    replica_writes: int = field(default=0, metadata=_CLUSTER)
    #: Per-node fabric/remote counter snapshots (one dict per node).
    node_stats: list = field(
        default_factory=list, metadata={"section": "cluster", "key": "per_node"}
    )
    #: Self-healing / recovery observability (all exactly 0 without node
    #: crashes, drains, or ``--check-invariants``).
    #: Permanent node crashes detected by the health monitor.
    node_crashes: int = field(default=0, metadata=_RECOVERY)
    #: Nodes re-admitted after a crash (``node_rejoin``) or a drain.
    node_rejoins: int = field(default=0, metadata=_RECOVERY)
    #: Under-replicated pages copied onto a live node by the repair engine.
    pages_repaired: int = field(default=0, metadata=_RECOVERY)
    #: Pages whose every replica died with its node (unrecoverable).
    pages_lost: int = field(default=0, metadata=_RECOVERY)
    #: Demand faults on lost pages resolved by mapping a zeroed frame.
    pages_zero_filled: int = field(default=0, metadata=_RECOVERY)
    #: Swapcache pages re-written back because their remote copy was lost.
    pages_salvaged: int = field(default=0, metadata=_RECOVERY)
    #: Pages evacuated off DRAINING nodes.
    pages_drained: int = field(default=0, metadata=_RECOVERY)
    #: Background repair traffic (bulk READs + WRITEs, and their bytes).
    repair_reads: int = field(default=0, metadata=_RECOVERY)
    repair_writes: int = field(default=0, metadata=_RECOVERY)
    repair_bytes: int = field(default=0, metadata=_RECOVERY)
    #: Repair tasks re-queued after their transfer timed out.
    repair_retries: int = field(default=0, metadata=_RECOVERY)
    #: Directory lookups of slots with no entry (typed error path).
    directory_misses: int = field(default=0, metadata=_RECOVERY)
    #: Cross-layer sanitizer sweeps that ran (and passed) this run.
    invariant_checks: int = field(default=0, metadata=_RECOVERY)
    #: Application compute time overlapped with memory stalls.
    compute_us: float = field(default=0.0, metadata=_MACHINE)
    #: Memory-controller write accesses and total bytes moved.
    mc_writes: int = field(default=0, metadata=_MACHINE)
    mc_bytes: int = field(default=0, metadata=_MACHINE)
    #: Reclaimer detail beyond ``reclaim_pages``.
    reclaim_batches: int = field(default=0, metadata=_MACHINE)
    reclaim_clean_drops: int = field(default=0, metadata=_MACHINE)
    reclaim_writebacks: int = field(default=0, metadata=_MACHINE)
    reclaim_background_us: float = field(default=0.0, metadata=_MACHINE)
    #: Swapcache traffic (inserts/hits/drops of prefetched pages).
    swapcache_inserts: int = field(default=0, metadata=_MACHINE)
    swapcache_hits: int = field(default=0, metadata=_MACHINE)
    swapcache_drops: int = field(default=0, metadata=_MACHINE)
    #: HoPP-side occurrences: hot pages the RPT could not resolve, and
    #: executor requests dropped as duplicates, rejected, or signalled
    #: as fabric drops.
    hopp_hot_pages_unresolved: int = field(default=0, metadata=_MACHINE)
    prefetch_duplicates: int = field(default=0, metadata=_MACHINE)
    prefetch_rejected: int = field(default=0, metadata=_MACHINE)
    fabric_drop_signals: int = field(default=0, metadata=_MACHINE)
    #: Telemetry export (None when telemetry was disabled).
    telemetry: Optional[Dict[str, object]] = field(default=None, metadata=_MANUAL)
    #: Tenant-scale scenario section (admission ladder, SLO attainment,
    #: autoscaler timeline) attached by :mod:`repro.scenario`; None for
    #: every non-scenario run.
    scenario: Optional[Dict[str, object]] = field(default=None, metadata=_MANUAL)
    #: Memory-tier section (per-tier read/writeback counters, promotion
    #: and demotion totals, migration traffic) attached by
    #: :mod:`repro.memtier`; None whenever tiering is off.
    memtier: Optional[Dict[str, object]] = field(default=None, metadata=_MANUAL)
    #: End-to-end integrity section (corruption detections/repairs,
    #: poisoned pages, scrub traffic, detection latency) attached by
    #: :mod:`repro.integrity`; None whenever neither corruption
    #: injection nor the patrol scrubber was armed.
    integrity: Optional[Dict[str, object]] = field(default=None, metadata=_MANUAL)
    extra: Dict[str, float] = field(default_factory=dict, metadata=_MANUAL)

    # -- paper metrics ----------------------------------------------------------

    @property
    def prefetch_hits(self) -> int:
        return (
            self.prefetch_hit_swapcache
            + self.prefetch_hit_inflight
            + self.prefetch_hit_dram
        )

    @property
    def prefetch_delivered(self) -> int:
        """Prefetched pages that actually arrived — issue attempts minus
        the ones injected faults dropped on the wire."""
        return self.prefetch_issued - self.dropped_prefetches

    @property
    def accuracy(self) -> float:
        """Prediction quality over *delivered* prefetches: an injected
        fabric drop is bad luck, not a wrong prediction, so it must not
        corrupt the paper's accuracy metric."""
        return safe_ratio(self.prefetch_hits, self.prefetch_delivered)

    @property
    def coverage(self) -> float:
        return safe_ratio(
            self.prefetch_hits, self.remote_demand_reads + self.prefetch_hits
        )

    @property
    def dram_hit_coverage(self) -> float:
        """Coverage counting only DRAM hits (injected PTEs) — the
        HoPP-only part Figure 21 plots."""
        return safe_ratio(
            self.prefetch_hit_dram, self.remote_demand_reads + self.prefetch_hits
        )

    @property
    def page_faults(self) -> int:
        """Faults the application observed: demand remote reads plus
        swapcache/inflight prefetch hits (those still fault)."""
        return (
            self.remote_demand_reads
            + self.prefetch_hit_swapcache
            + self.prefetch_hit_inflight
        )

    @property
    def remote_accesses(self) -> int:
        """Everything read over the fabric (Figure 17's numerator)."""
        return self.fabric_reads

    def normalized_performance(self, ct_local_us: float) -> float:
        return safe_ratio(ct_local_us, self.completion_time_us)

    def speedup_vs(self, baseline: "RunResult") -> float:
        if baseline.completion_time_us <= 0:
            return 0.0
        return 1.0 - self.completion_time_us / baseline.completion_time_us

    def tier_accuracy(self, tier: str) -> float:
        return safe_ratio(
            self.hits_by_tier.get(tier, 0),
            self.issued_by_tier.get(tier, 0) - self.dropped_by_tier.get(tier, 0),
        )

    def tier_coverage(self, tier: str) -> float:
        return safe_ratio(
            self.hits_by_tier.get(tier, 0),
            self.remote_demand_reads + self.prefetch_hits,
        )

    # -- export -------------------------------------------------------------------

    def _section(self, section: Optional[str]) -> Dict[str, object]:
        return {
            key: getattr(self, name) if copy is None else copy(getattr(self, name))
            for name, key, copy in _LAYOUT[section]
        }

    def to_dict(self, full: bool = False) -> Dict[str, object]:
        """A flat, JSON-serializable snapshot of the run (counters plus
        the derived paper metrics).

        Each field's ``metadata`` names its section; ``full=True`` adds
        the ``machine`` section and the exact timeliness-histogram state so
        :meth:`from_dict` can rebuild a RunResult that serializes
        byte-identically — the result-cache contract."""
        out = self._section(None)
        out["cluster"] = self._section("cluster")
        out["recovery"] = self._section("recovery")
        out["accuracy"] = self.accuracy
        out["coverage"] = self.coverage
        out["page_faults"] = self.page_faults
        out["breakdown_us"] = {
            key: getattr(self.breakdown, name) for name, key in _BREAKDOWN_KEYS
        }
        out["extra"] = dict(self.extra)
        if self.timeliness is not None and self.timeliness.stat.count:
            out["timeliness_us"] = {
                "mean": self.timeliness.stat.mean,
                "p50": self.timeliness.quantile(0.5),
                "p90": self.timeliness.quantile(0.9),
                "count": self.timeliness.stat.count,
            }
        for name in _OPTIONAL_SECTIONS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if full:
            out["machine"] = self._section("machine")
            if self.timeliness is not None:
                stat = self.timeliness.stat
                out["timeliness_hist"] = {
                    "bounds": list(self.timeliness.bounds),
                    "counts": list(self.timeliness.counts),
                    "stat": {
                        "count": stat.count,
                        "mean": stat._mean,
                        "m2": stat._m2,
                        "min": stat.min,
                        "max": stat.max,
                    },
                }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a RunResult from :meth:`to_dict(full=True)` output.

        The round trip is exact: ``from_dict(r.to_dict(full=True))``
        serializes byte-identically to ``r`` (pinned by the cache tests).
        A missing key leaves its field at the declared default.  Derived
        metrics (accuracy, coverage, ...) are recomputed from the
        restored counters, never trusted from the snapshot."""
        kwargs: Dict[str, object] = {}
        for section, entries in _LAYOUT.items():
            source = data if section is None else data.get(section, {})
            for name, key, copy in entries:
                if key in source:
                    value = source[key]
                    kwargs[name] = value if copy is None else copy(value)
        breakdown_us = data.get("breakdown_us", {})
        kwargs["breakdown"] = FaultBreakdown(
            **{
                name: breakdown_us[key]
                for name, key in _BREAKDOWN_KEYS
                if key in breakdown_us
            }
        )
        hist = data.get("timeliness_hist")
        if hist is not None:
            timeliness = Histogram(bounds=hist["bounds"])
            timeliness.counts = list(hist["counts"])
            stat = hist["stat"]
            timeliness.stat.count = stat["count"]
            timeliness.stat._mean = stat["mean"]
            timeliness.stat._m2 = stat["m2"]
            timeliness.stat.min = stat["min"]
            timeliness.stat.max = stat["max"]
            kwargs["timeliness"] = timeliness
        for name in _OPTIONAL_SECTIONS:
            kwargs[name] = data.get(name)
        kwargs["extra"] = dict(data.get("extra", {}))
        return cls(**kwargs)


#: Wire layout, computed once: per section (None = the top level), the
#: ``(field name, wire key, copy)`` of every field not handled by hand,
#: in declaration order.  ``copy`` is the field's ``dict``/``list``
#: factory for container fields (snapshots never alias the result) and
#: None for scalars.
_LAYOUT: Dict[Optional[str], Tuple[Tuple[str, str, Optional[Callable]], ...]] = {
    section: tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            f.default_factory if f.default_factory in (dict, list) else None,
        )
        for f in fields(RunResult)
        if not f.metadata.get("manual") and f.metadata.get("section") == section
    )
    for section in (None, "cluster", "recovery", "machine")
}

#: ``breakdown_us`` keys are FaultBreakdown's field names minus ``_us``.
_BREAKDOWN_KEYS = tuple(
    (f.name, f.name[: -len("_us")]) for f in fields(FaultBreakdown)
)
