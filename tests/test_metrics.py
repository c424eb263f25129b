"""Unit tests for RunResult metric math and export."""

import json
from dataclasses import MISSING, fields

import pytest

from repro.common.stats import Histogram
from repro.common.types import FaultBreakdown
from repro.sim.metrics import RunResult


def result(**overrides) -> RunResult:
    base = dict(system="test", workload="wl")
    base.update(overrides)
    return RunResult(**base)


class TestPaperMetrics:
    def test_accuracy(self):
        r = result(prefetch_issued=100, prefetch_hit_dram=60,
                   prefetch_hit_swapcache=20, prefetch_hit_inflight=10)
        assert r.prefetch_hits == 90
        assert r.accuracy == pytest.approx(0.9)

    def test_accuracy_no_prefetches(self):
        assert result().accuracy == 0.0

    def test_coverage_definition(self):
        """coverage = hits / (remote demand requests + hits), VI-A."""
        r = result(remote_demand_reads=10, prefetch_hit_dram=90)
        assert r.coverage == pytest.approx(0.9)

    def test_dram_hit_coverage_subset(self):
        r = result(remote_demand_reads=10, prefetch_hit_dram=45,
                   prefetch_hit_swapcache=45)
        assert r.dram_hit_coverage == pytest.approx(0.45)
        assert r.coverage == pytest.approx(0.9)

    def test_page_faults_counts_swapcache_hits(self):
        """Swapcache/inflight prefetch hits still fault (II-C); DRAM
        hits from injected PTEs do not."""
        r = result(remote_demand_reads=5, prefetch_hit_swapcache=3,
                   prefetch_hit_inflight=2, prefetch_hit_dram=100)
        assert r.page_faults == 10

    def test_normalized_performance(self):
        r = result(completion_time_us=200.0)
        assert r.normalized_performance(100.0) == pytest.approx(0.5)
        assert result(completion_time_us=0.0).normalized_performance(100.0) == 0.0

    def test_speedup_vs(self):
        fast = result(completion_time_us=100.0)
        slow = result(completion_time_us=150.0)
        assert fast.speedup_vs(slow) == pytest.approx(1 - 100 / 150)
        assert slow.speedup_vs(fast) < 0

    def test_tier_metrics(self):
        r = result(
            issued_by_tier={"ssp": 50, "lsp": 10},
            hits_by_tier={"ssp": 45, "lsp": 5},
            remote_demand_reads=10,
            prefetch_hit_dram=50,
        )
        assert r.tier_accuracy("ssp") == pytest.approx(0.9)
        assert r.tier_accuracy("lsp") == pytest.approx(0.5)
        assert r.tier_accuracy("rsp") == 0.0
        assert r.tier_coverage("ssp") == pytest.approx(45 / 60)


class TestExport:
    def test_to_dict_json_serializable(self):
        r = result(
            completion_time_us=123.4,
            issued_by_tier={"ssp": 5},
            hits_by_tier={"ssp": 4},
            prefetch_issued=5,
            prefetch_hit_dram=4,
        )
        payload = r.to_dict()
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["accuracy"] == pytest.approx(0.8)
        assert decoded["issued_by_tier"] == {"ssp": 5}
        assert "breakdown_us" in decoded

    def test_to_dict_includes_timeliness_when_present(self):
        hist = Histogram()
        hist.add(50.0)
        r = result(timeliness=hist)
        payload = r.to_dict()
        assert payload["timeliness_us"]["count"] == 1
        assert payload["timeliness_us"]["mean"] == pytest.approx(50.0)

    def test_to_dict_omits_empty_timeliness(self):
        assert "timeliness_us" not in result().to_dict()


def distinct_result() -> RunResult:
    """A RunResult whose every field holds its own non-default value."""
    values = {}
    for index, f in enumerate(fields(RunResult), start=1):
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = ""
        if f.name == "timeliness":
            value = Histogram()
            for sample in (0.5, 3.0 * index, 2_000.0):
                value.add(sample)
        elif isinstance(default, FaultBreakdown):
            value = FaultBreakdown(
                *(index + 0.125 * k for k in range(1, len(fields(default)) + 1))
            )
        elif isinstance(default, int):
            value = 1000 + index
        elif isinstance(default, float):
            value = index + 0.5
        elif isinstance(default, str):
            value = f"{f.name}-{index}"
        elif isinstance(default, dict):
            value = {f"{f.name}-key": index}
        elif isinstance(default, list):
            value = [{"node": index}]
        elif default is None:
            value = {"section": f.name, "value": index}
        else:
            raise AssertionError(f"no distinct value rule for {f.name}")
        values[f.name] = value
    return RunResult(**values)


def field_state(result: RunResult, name: str):
    value = getattr(result, name)
    if isinstance(value, Histogram):
        return value.bounds, value.counts, vars(value.stat)
    return value


class TestWireFormat:
    def test_every_field_survives_the_json_round_trip(self):
        original = distinct_result()
        blank = RunResult(system="", workload="")
        for f in fields(RunResult):
            assert field_state(original, f.name) != field_state(blank, f.name), f.name
        wire = json.loads(json.dumps(original.to_dict(full=True)))
        revived = RunResult.from_dict(wire)
        for f in fields(RunResult):
            assert field_state(revived, f.name) == field_state(original, f.name), f.name
        assert revived.to_dict(full=True) == original.to_dict(full=True)

    def test_missing_keys_restore_defaults(self):
        revived = RunResult.from_dict({"system": "s", "workload": "w"})
        blank = RunResult(system="s", workload="w")
        for f in fields(RunResult):
            assert field_state(revived, f.name) == field_state(blank, f.name), f.name

    def test_layout_is_pinned(self):
        wire = distinct_result().to_dict(full=True)
        assert set(wire) == {
            "system", "workload", "completion_time_us", "accesses",
            "mc_reads", "minor_faults", "remote_demand_reads",
            "prefetch_hit_swapcache", "prefetch_hit_inflight",
            "prefetch_hit_dram", "prefetch_issued", "prefetch_wasted",
            "issued_by_tier", "hits_by_tier", "fabric_reads",
            "fabric_writes", "reclaim_pages", "peak_resident_pages",
            "timeouts", "retries", "retry_latency_us",
            "dropped_prefetches", "dropped_by_tier", "degraded_mode_us",
            "breaker_opens", "prefetch_suppressed", "cluster", "recovery",
            "accuracy", "coverage", "page_faults", "breakdown_us",
            "extra", "timeliness_us", "telemetry", "scenario", "memtier",
            "integrity", "machine", "timeliness_hist",
        }
        assert set(wire["cluster"]) == {
            "remote_nodes", "placement", "replication", "demand_failovers",
            "writeback_reroutes", "replica_writes", "per_node",
        }
        assert set(wire["recovery"]) == {
            "node_crashes", "node_rejoins", "pages_repaired", "pages_lost",
            "pages_zero_filled", "pages_salvaged", "pages_drained",
            "repair_reads", "repair_writes", "repair_bytes",
            "repair_retries", "directory_misses", "invariant_checks",
        }
        assert set(wire["machine"]) == {
            "compute_us", "mc_writes", "mc_bytes", "reclaim_batches",
            "reclaim_clean_drops", "reclaim_writebacks",
            "reclaim_background_us", "swapcache_inserts", "swapcache_hits",
            "swapcache_drops", "hopp_hot_pages_unresolved",
            "prefetch_duplicates", "prefetch_rejected",
            "fabric_drop_signals",
        }
        assert set(wire["breakdown_us"]) == {
            "dram_hit", "prefetch_hit", "remote_fault", "inflight_wait",
            "reclaim",
        }
        assert "machine" not in distinct_result().to_dict()
