"""Differential tests for the resident-hit fast path in Machine.run.

``Machine.run(use_fast_path=False)`` is the oracle: the plain
per-access loop with no local batching or specialized dispatch.  The
fast path must be *invisible* — byte-identical counters, latencies and
per-component breakdowns on every system, including mixed read/write
traces (writes dirty pages and change writeback traffic) and prefetch
taps (which re-enter the machine mid-loop).
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.common.constants import BLOCK_SHIFT, PAGE_SHIFT
from repro.integrity import ScrubConfig
from repro.net.faults import FaultPlan
from repro.sim import batchkernel, runner
from repro.sim import systems as systems_mod
from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

SYSTEMS = ["noprefetch", "fastswap", "leap", "hopp", "hopp-evict"]


def run_both(workload_name, system, fraction, seed=3, trace=None,
             **workload_kwargs):
    """One run through the fast dispatcher, one through the oracle loop,
    on the same materialized trace."""
    results = []
    workload = build(workload_name, seed=seed, **workload_kwargs)
    if trace is None:
        trace = list(workload.trace())
    for fast in (True, False):
        machine = make_machine(workload, system, fraction, quiet_fabric(seed))
        machine.run(trace, use_fast_path=fast)
        machine.flush_recovery()
        results.append(collect(machine, system, workload_name))
    return results


def with_writes(trace, every=3):
    """Mark every ``every``-th access as a write (3-tuple form)."""
    return [
        (item[0], item[1], True) if i % every == 0 else item
        for i, item in enumerate(trace)
    ]


class TestFastPathEquivalence:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stream_workload(self, system):
        fast, slow = run_both("stream-simple", system, 0.5,
                              npages=128, passes=2)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    @pytest.mark.parametrize("system", ["fastswap", "hopp"])
    def test_mixed_read_write_trace(self, system):
        # Writes dirty resident pages (changing eviction writeback
        # traffic) and land on the MC write counter — the fast path must
        # account both identically.  No stock workload emits the
        # 3-tuple form, so mark every third access a write explicitly.
        trace = with_writes(list(build("kv-cache", seed=3).trace()))
        assert any(len(item) > 2 and item[2] for item in trace)
        fast, slow = run_both("kv-cache", system, 0.5, trace=trace)
        assert fast.mc_reads > 0
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    @pytest.mark.parametrize("system", ["fastswap", "hopp"])
    @pytest.mark.parametrize("layout", ["3-tuple", "mixed"])
    def test_truthy_write_flags(self, system, layout):
        # access() reads a write flag by its truth, so a hand-built
        # trace whose flag is a truthy non-bool (2) must count one
        # write per flagged access on the batched path too, in uniform
        # 3-tuple chunks and in mixed 2-/3-tuple chunks alike.
        base = list(build("stream-simple", seed=3).trace())
        if layout == "3-tuple":
            trace = [(pid, vaddr, 2 if i % 5 == 0 else 0)
                     for i, (pid, vaddr) in enumerate(base)]
        else:
            trace = [(pid, vaddr, 2) if i % 5 == 0 else (pid, vaddr)
                     for i, (pid, vaddr) in enumerate(base)]
        fast, slow = run_both("stream-simple", system, 0.5, trace=trace)
        assert slow.mc_writes == len(range(0, len(trace), 5))
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    @pytest.mark.parametrize("fraction", [0.25, 1.0, 4.0])
    def test_across_memory_pressure(self, fraction):
        # 4.0 = everything resident (pure fast path); 0.25 = constant
        # reclaim (fast path mostly falls through to access()).
        fast, slow = run_both("stream-ladder", "hopp", fraction)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    def test_multi_process_workload(self):
        fast, slow = run_both("omp-kmeans", "hopp", 0.5)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    def test_runner_uses_fast_path_result(self):
        # runner.run (the production entry) must equal the oracle too.
        workload = build("stream-simple", seed=3, npages=128, passes=2)
        via_runner = runner.run(workload, "hopp", 0.5, quiet_fabric(3))
        _, slow = run_both("stream-simple", "hopp", 0.5,
                           npages=128, passes=2)
        assert via_runner.to_dict(full=True) == slow.to_dict(full=True)


def page_sweep_trace(workload, npages=48, sweeps=3, run_len=64):
    """Page-sequential full-page sweeps: same-page runs of exactly
    ``run_len`` accesses, so chunk sizes that divide (or just miss) the
    run length put chunk edges exactly on run and extraction
    boundaries."""
    proc = workload.processes[0]
    start_vpn, vma_pages, _ = proc.vmas[0]
    npages = min(npages, vma_pages)
    trace = []
    for _ in range(sweeps):
        for vpn in range(start_vpn, start_vpn + npages):
            base = vpn << PAGE_SHIFT
            for block in range(run_len):
                trace.append((proc.pid, base | (block << BLOCK_SHIFT)))
    return trace


class TestBatchKernelAdversarial:
    """Batched kernel == oracle under adversarial barrier placement.

    The kernel's barriers are chunk edges, due prefetch arrivals, and
    HPD extractions; these tests pin traces and chunk sizes chosen so
    those barriers collide (arrival due exactly at a chunk edge,
    extraction at the last access of a chunk, chunk_size=1 degenerating
    every run to a single access)."""

    def _oracle(self, workload, trace, **machine_kwargs):
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               **machine_kwargs)
        machine.run(trace, use_fast_path=False)
        machine.flush_recovery()
        return collect(machine, "hopp", "adv").to_dict(full=True)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 63, 64, 65, 4096])
    def test_chunk_edges_on_run_and_extraction_boundaries(self, chunk):
        # Runs of exactly 64 accesses: chunk 64 puts every chunk edge on
        # a run boundary (and the HPD extraction for a fresh page fires
        # threshold accesses in — mid-chunk, last-access, first-access
        # depending on chunk phase); 63/65 walk the edge through every
        # phase; 1 degenerates the scan entirely.  At fraction 0.5 the
        # sweeps fault, prefetch, and evict, so due arrivals land on
        # those edges too.
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(trace, chunk_size=chunk)
        machine.flush_recovery()
        got = collect(machine, "hopp", "adv").to_dict(full=True)
        assert got == want

    def test_chunk_size_one_with_writes(self):
        workload = build("stream-simple", seed=3)
        trace = with_writes(page_sweep_trace(workload, npages=24, sweeps=2))
        want = self._oracle(workload, trace)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(trace, chunk_size=1)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_telemetry_armed(self):
        from repro.telemetry import TelemetryConfig

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, telemetry=TelemetryConfig())
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               telemetry=TelemetryConfig())
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_chaos_fault_plan(self):
        from repro.net.faults import FaultPlan

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, fault_plan=FaultPlan.chaos(seed=3))
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               fault_plan=FaultPlan.chaos(seed=3))
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_memtier_active(self):
        from repro.memtier import MemtierConfig

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, memtier=MemtierConfig())
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               memtier=MemtierConfig())
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want


class TestBatchPrimitives:
    """The kernel's building blocks against their per-access originals."""

    def test_seq_add_chains_bit_identical(self):
        # Each retired sub-run must perform the same float additions as
        # the oracle's per-access loop, for every chain length a sub-run
        # can have (0 up to a whole 4096-access chunk).
        rng = random.Random(7)
        for _ in range(200):
            k = rng.choice([0, 1, 31, 32, 33, 64, 1000, 4096])
            consts = [rng.uniform(0.001, 3.0) for _ in range(3)]
            starts = [rng.uniform(0.0, 1e7) for _ in range(3)]
            want = []
            for x, c in zip(starts, consts):
                for _ in range(k):
                    x += c
                want.append(x)
            got = list(batchkernel._seq_add3(
                starts[0], starts[1], starts[2],
                consts[0], consts[1], consts[2], k,
            ))
            assert got == want

    def test_hpd_process_run_equivalence(self):
        from repro.hopp.hpd import HotPageDetector

        rng = random.Random(11)
        a = HotPageDetector()
        b = HotPageDetector()
        for _ in range(400):
            ppn = rng.randrange(40)
            reads = rng.randrange(1, 20)
            # Oracle: per-access process, stopping at the extraction.
            want_used, want_hot = reads, None
            for idx in range(reads):
                hot = a.process(ppn << PAGE_SHIFT, False)
                if hot is not None:
                    want_used, want_hot = idx + 1, hot
                    break
            used, fired = b.process_run(ppn, reads)
            assert (used, fired) == (want_used, want_hot is not None)
        assert a.accesses == b.accesses
        assert a.dropped_after_send == b.dropped_after_send
        assert a.hot_pages == b.hot_pages
        assert a._table.hits == b._table.hits
        assert a._table.misses == b._table.misses

    def test_multichannel_process_batch_equivalence(self):
        from repro.hopp.hpd import MultiChannelHpd

        rng = random.Random(13)
        a = MultiChannelHpd(channels=2)
        b = MultiChannelHpd(channels=2)
        for _ in range(200):
            paddrs = [rng.randrange(30) << PAGE_SHIFT for _ in range(rng.randrange(1, 12))]
            writes = [rng.random() < 0.2 for _ in paddrs]
            want_used, want_hot = len(paddrs), None
            for idx, (paddr, w) in enumerate(zip(paddrs, writes)):
                hot = a.process(paddr, w)
                if hot is not None:
                    want_used, want_hot = idx + 1, hot
                    break
            assert b.process_batch(paddrs, writes) == (want_used, want_hot)

    def test_stt_feed_batch_equivalence(self):
        from repro.hopp.stt import StreamTrainingTable

        rng = random.Random(17)
        a = StreamTrainingTable()
        b = StreamTrainingTable()
        pages = [
            (rng.randrange(3), rng.randrange(200))
            for _ in range(600)
        ]
        want = [
            obs for obs in (a.feed(pid, vpn, 5.0) for pid, vpn in pages)
            if obs is not None
        ]
        got = b.feed_batch(pages, 5.0)
        assert [(o.pid, o.vpn, o.stride, o.vpn_history, o.stride_history)
                for o in got] == \
            [(o.pid, o.vpn, o.stride, o.vpn_history, o.stride_history)
             for o in want]
        assert len(a) == len(b)

    def test_ssp_counts_equivalence(self):
        from repro.hopp import ssp

        rng = random.Random(19)
        for _ in range(500):
            strides = [rng.choice([-3, -1, 0, 1, 2, 64]) for _ in
                       range(rng.randrange(1, 15))]
            counts = {}
            for s in strides:
                if s:
                    counts[s] = counts.get(s, 0) + 1
            for min_count in (1, 2, len(strides) // 2):
                assert ssp.dominant_stride_from_counts(
                    counts, strides, min_count
                ) == ssp.dominant_stride(strides, min_count)


class TestFastPathGating:
    def test_sanitizer_alone_replays_batched(self):
        # With only the invariant sanitizer armed (no fault plan, so no
        # timed events) the batch kernel still replays the run, and its
        # access-count deadline alone keeps it equal to the oracle (the
        # sanitizer sweeps every N accesses, so the trace must be long
        # enough to cross that interval).
        workload = build("stream-simple", seed=3, npages=256, passes=10)
        trace = list(workload.trace())
        assert len(trace) >= 2000
        a = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                         check_invariants=True)
        a.run(trace)
        b = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                         check_invariants=True)
        b.run(trace, use_fast_path=False)
        assert a.replay_engine == "batched"
        assert collect(a, "hopp", "s").to_dict(full=True) == \
            collect(b, "hopp", "s").to_dict(full=True)
        assert a.sanitizer.checks_run > 0


def _prototype_spec(rate):
    """The Section V prototype wiring: a data plane subclass whose MC tap
    feeds a software trace ring instead of the HPD directly."""
    from repro.baselines.fastswap import FastswapPrefetcher
    from repro.hopp.prototype import PrototypeDataPlane
    from repro.hopp.system import HoppConfig
    from repro.sim.machine import Machine
    from repro.sim.systems import SystemSpec

    def builder(config):
        machine = Machine(config, fault_prefetcher=FastswapPrefetcher())
        plane = PrototypeDataPlane(
            machine, HoppConfig(), consume_rate_per_us=rate, ring_capacity=4096
        )
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        return machine

    return SystemSpec(name=f"hopp-proto-{rate}", builder=builder)


SMALL_KMEANS = {"data_pages": 240, "iterations": 1}


class TestEveryEngineReachableWiring:
    """Default dispatch == oracle loop for every wiring ``Machine.run``
    can send down a fast engine: each registered system, subclassed
    data planes, and extra MC taps."""

    def _pair(self, spec, **workload_kwargs):
        workload = build("omp-kmeans", seed=5, **(workload_kwargs or SMALL_KMEANS))
        trace = list(workload.trace())
        results = []
        for fast in (True, False):
            machine = make_machine(workload, spec, 0.5, quiet_fabric(5))
            machine.run(trace, use_fast_path=fast)
            machine.flush_recovery()
            results.append(collect(machine, "wired", workload.name).to_dict(full=True))
            results.append(machine)
        return results

    @pytest.mark.parametrize("system", sorted(systems_mod.names()))
    def test_registered_system(self, system):
        fast, _, slow, _ = self._pair(system)
        assert fast == slow

    @pytest.mark.parametrize("rate", [1.0, 100.0])
    def test_prototype_plane(self, rate):
        # The prototype overrides on_mc_access; an engine that ran the
        # HPD itself would skip its ring and drain model entirely.
        fast, fast_machine, slow, slow_machine = self._pair(_prototype_spec(rate))
        assert not batchkernel.supports_batch_taps(fast_machine)
        assert fast == slow
        assert fast_machine.hopp.records_consumed == slow_machine.hopp.records_consumed
        assert fast_machine.hopp.records_dropped == slow_machine.hopp.records_dropped

    def test_hmtt_tracer_tap(self):
        from repro.sim.systems import build as build_system
        from repro.sim.systems import SystemSpec
        from repro.trace.hmtt import HmttTracer

        tracers = []
        hopp = build_system("hopp")

        def builder(config):
            machine = hopp.build(config)
            tracer = HmttTracer()
            tracer.attach(machine.controller)
            tracers.append(tracer)
            return machine

        fast, _, slow, _ = self._pair(SystemSpec(name="hopp-hmtt", builder=builder))
        assert fast == slow
        fast_ring, slow_ring = (tracer.ring for tracer in tracers)
        assert len(fast_ring) == len(slow_ring) > 0
        assert fast_ring.drain() == slow_ring.drain()


class TestChunkEngineSelection:
    """Every chunk reaches the one chunk engine: uniform arities,
    mixed 2-/3-tuple chunks, and tails shorter than 16 accesses."""

    def _chunks(self, monkeypatch, trace, chunk_size):
        seen = []
        vector = batchkernel.BatchKernel._chunk_vector

        def spy_vector(self, *columns):
            seen.append(len(columns[0]))
            return vector(self, *columns)

        monkeypatch.setattr(batchkernel.BatchKernel, "_chunk_vector", spy_vector)
        workload = build("stream-simple", seed=3, npages=64, passes=2)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(trace, chunk_size=chunk_size)
        assert machine.accesses == len(trace)
        return seen

    @staticmethod
    def _trace():
        return list(build("stream-simple", seed=3, npages=64, passes=2).trace())

    @pytest.mark.parametrize("arity", [2, 3])
    def test_uniform_chunks_take_vector_engine(self, monkeypatch, arity):
        trace = self._trace()
        if arity == 3:
            trace = [(pid, vaddr, i % 3 == 0) for i, (pid, vaddr) in enumerate(trace)]
        seen = self._chunks(monkeypatch, trace, 256)
        assert sum(seen) == len(trace)

    def test_mixed_chunks_take_vector_engine(self, monkeypatch):
        trace = with_writes(self._trace())
        assert {len(item) for item in trace[:256]} == {2, 3}
        seen = self._chunks(monkeypatch, trace, 256)
        assert sum(seen) == len(trace)

    def test_short_tail_chunks_take_vector_engine(self, monkeypatch):
        trace = with_writes(self._trace())
        trace = trace[: 3 * 100 + 5]
        seen = self._chunks(monkeypatch, trace, 100)
        assert seen == [100, 100, 100, 5]


def _multichannel_spec():
    """Stock HoPP with a two-channel interleaved HPD: the batch kernel's
    ``MultiChannelHpd.process_batch`` branch."""
    from repro.baselines.fastswap import FastswapPrefetcher
    from repro.hopp.system import HoppConfig, HoppDataPlane
    from repro.sim.machine import Machine
    from repro.sim.systems import SystemSpec

    def builder(config):
        machine = Machine(config, fault_prefetcher=FastswapPrefetcher())
        plane = HoppDataPlane(machine, HoppConfig(mc_channels=2))
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        return machine

    return SystemSpec(name="hopp-2ch", builder=builder)


class TestMultiChannelKernel:
    """The vector engine's multi-channel HPD branch == the oracle."""

    @pytest.mark.parametrize("chunk", [None, 1, 15, 64])
    @pytest.mark.parametrize("writes", [False, True])
    def test_matches_oracle(self, chunk, writes):
        from repro.hopp.hpd import MultiChannelHpd

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        if writes:
            trace = with_writes(trace, every=7)
        results = []
        for fast in (True, False):
            machine = make_machine(workload, _multichannel_spec(), 0.5,
                                   quiet_fabric(3))
            machine.run(trace, use_fast_path=fast, chunk_size=chunk)
            machine.flush_recovery()
            results.append(collect(machine, "hopp-2ch", "mc").to_dict(full=True))
            if fast:
                assert type(machine.hopp.hpd) is MultiChannelHpd
                assert machine.replay_engine == "batched"
                hot_pages = machine.hopp.hpd.hot_pages
            else:
                assert machine.hopp.hpd.hot_pages == hot_pages > 0
        assert results[0] == results[1]


class TestCorunRunBoundaries:
    """Two pids touching the same vaddr back to back: a same-page run
    ends at every pid change, not only at vpn changes, or the second
    pid's accesses would retire against the first pid's PTE."""

    @staticmethod
    def _trace(workload):
        from repro.sim.multiprogram import PID_STRIDE

        proc = workload.processes[0]
        pid_a, pid_b = proc.pid, proc.pid + PID_STRIDE
        start_vpn, vma_pages, _ = proc.vmas[0]
        trace = []
        for _ in range(3):
            for vpn in range(start_vpn, start_vpn + min(48, vma_pages)):
                base = vpn << PAGE_SHIFT
                # Runs of 16 per pid (pid_b's first touch of the page
                # follows pid_a's run), then alternate access by access.
                for pid in (pid_a, pid_b):
                    trace += [(pid, base | (block << BLOCK_SHIFT))
                              for block in range(16)]
                for block in range(16, 32):
                    addr = base | (block << BLOCK_SHIFT)
                    trace += [(pid_a, addr), (pid_b, addr)]
        return trace

    @pytest.mark.parametrize("chunk", [None, 64, 1])
    @pytest.mark.parametrize("system", ["hopp", "fastswap"])
    def test_matches_oracle(self, system, chunk):
        from repro.sim.machine import MachineConfig
        from repro.sim.multiprogram import build_corun_machine

        apps = [build("stream-simple", seed=3) for _ in range(2)]
        trace = self._trace(apps[0])
        results = []
        for fast in (True, False):
            config = MachineConfig(
                local_memory_pages=sum(a.footprint_pages for a in apps),
                fabric=quiet_fabric(3),
                compute_us_per_access=apps[0].compute_us_per_access,
            )
            machine, _ = build_corun_machine(
                apps, systems_mod.build(system), 0.5, config
            )
            machine.run(trace, use_fast_path=fast, chunk_size=chunk)
            machine.flush_recovery()
            results.append(collect(machine, system, "corun").to_dict(full=True))
            if fast:
                assert machine.replay_engine == "batched"
        assert results[0] == results[1]


class TestReplayEngine:
    """``Machine.replay_engine`` names the engine each wiring takes."""

    def _engine(self, spec, **machine_kwargs):
        workload = build("stream-simple", seed=3, npages=64, passes=1)
        machine = make_machine(workload, spec, 0.5, quiet_fabric(3),
                               **machine_kwargs)
        assert machine.replay_engine is None
        machine.run(list(workload.trace()))
        return machine.replay_engine

    @pytest.mark.parametrize("system", ["hopp", "noprefetch"])
    def test_stock_systems_batched(self, system):
        assert self._engine(system) == "batched"

    def test_prototype_plane_oracle(self):
        assert self._engine(_prototype_spec(1.0)) == "oracle: non-stock MC tap"

    def test_hmtt_tracer_oracle(self):
        from repro.sim.systems import SystemSpec
        from repro.sim.systems import build as build_system
        from repro.trace.hmtt import HmttTracer

        hopp = build_system("hopp")

        def builder(config):
            machine = hopp.build(config)
            HmttTracer().attach(machine.controller)
            return machine

        spec = SystemSpec(name="hopp-hmtt", builder=builder)
        assert self._engine(spec) == "oracle: non-stock MC tap"

    def test_armed_and_forced_oracle(self):
        # Armed machines replay batched; only use_fast_path=False (and a
        # non-stock tap, above) still take the oracle loop.
        assert self._engine("hopp", fault_plan=FaultPlan.none()) == "batched"
        assert self._engine(
            "hopp", fault_plan=FaultPlan.crash_rejoin(3),
            cluster=ClusterConfig(nodes=3, replication=2),
        ) == "batched"
        assert self._engine("hopp", check_invariants=True) == "batched"
        workload = build("stream-simple", seed=3, npages=64, passes=1)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(list(workload.trace()), use_fast_path=False)
        assert machine.replay_engine == "oracle: use_fast_path=False"
        assert set(machine.replay_barriers.values()) == {0}

    def test_profile_probes_armed_spec(self):
        # run --profile's probes replay on the spec's armed machine.
        from repro.exec.profile import loop_throughput
        from repro.exec.spec import RunSpec

        spec = RunSpec(workload="stream-simple", system="fastswap",
                       fault_plan=FaultPlan.crash_rejoin(3),
                       check_invariants=True)
        _, engines, barriers = loop_throughput(spec, max_accesses=5_000)
        assert engines == {"untapped": "batched"}
        assert barriers["untapped"]["timed_event"] > 0
        assert barriers["untapped"]["chunk_edge"] == 2


_REJOIN = FaultPlan.crash_rejoin(7, at_us=2_500.0, rejoin_us=4_500.0)

#: Armed-run cases: (fault plan, scrub config, sanitizer interval).  The
#: small quicksort below completes in ~6-8 ms simulated, so the crash
#: and rejoin land mid-run; chaos and corruption-chaos act through their
#: probabilistic drops and flips.
ARMED_CASES = {
    "empty": (FaultPlan.none(), None, None),
    "crash": (FaultPlan.crash(7, at_us=2_500.0), None, None),
    "crash-rejoin": (_REJOIN, None, None),
    "chaos": (FaultPlan.chaos(7), None, None),
    "corruption-chaos": (FaultPlan.corruption_chaos(7), None, None),
    "scrub": (_REJOIN, ScrubConfig(rate_pages_per_s=20_000.0), None),
    "sanitizer": (_REJOIN, None, 97),
}


class TestArmedRunsBatched:
    """Armed runs (fault plans, patrol scrub, sanitizer) replay through
    the batch kernel with its timed deadlines, and match the oracle."""

    def _run(self, workload, trace, system, case, fast, chunk=None,
             drain_at=None):
        plan, scrub, interval = ARMED_CASES[case]
        machine = make_machine(
            workload, system, 0.25, quiet_fabric(7), plan,
            ClusterConfig(nodes=3, replication=2),
            check_invariants=interval is not None, scrub=scrub,
        )
        sweeps = []
        if interval is not None:
            machine.config.sanitizer_interval_accesses = interval
            # Record where each sweep ran: a sweep the kernel delays
            # still passes, so only its position shows the delay.
            check = machine.sanitizer.check

            def spy():
                sweeps.append((machine.accesses, machine.now_us))
                check()

            machine.sanitizer.check = spy
        if drain_at is None:
            machine.run(trace, use_fast_path=fast, chunk_size=chunk)
        else:
            # The autoscaler's scale-in path: a drain between two runs.
            machine.run(trace[:drain_at], use_fast_path=fast, chunk_size=chunk)
            machine.drain_node(1)
            machine.run(trace[drain_at:], use_fast_path=fast, chunk_size=chunk)
        machine.flush_memtier()
        machine.flush_recovery()
        return machine, (
            collect(machine, system, "armed").to_dict(full=True),
            machine.health.transitions,
            machine.repair.stats_snapshot(),
            None if machine.sanitizer is None else machine.sanitizer.checks_run,
            sweeps,
        )

    def _both(self, system, case, chunk=None, drain_at=None):
        workload = build("quicksort", seed=7, array_pages=400)
        trace = list(workload.trace())
        fast, got = self._run(workload, trace, system, case, True, chunk,
                              drain_at)
        slow, want = self._run(workload, trace, system, case, False, chunk,
                               drain_at)
        assert fast.replay_engine == "batched"
        assert slow.replay_engine == "oracle: use_fast_path=False"
        assert got == want
        return fast, len(trace)

    @pytest.mark.parametrize("chunk", [None, 1, 15, 64])
    @pytest.mark.parametrize("system", ["fastswap", "leap", "hopp"])
    @pytest.mark.parametrize("case", list(ARMED_CASES))
    def test_matches_oracle(self, case, system, chunk):
        machine, accesses = self._both(system, case, chunk)
        assert machine.replay_barriers["timed_event"] > 0
        if case in ("crash", "crash-rejoin", "scrub", "sanitizer"):
            assert machine.health.node_crashes == 1
            assert machine.repair.pages_repaired > 0
        if case == "scrub":
            assert machine.integrity.scrub_reads > 0
        if case == "sanitizer":
            assert machine.sanitizer.checks_run > accesses // 97

    @pytest.mark.parametrize("system", ["fastswap", "hopp"])
    def test_requested_sweep_runs_at_next_access(self, system):
        # Recovery events that fire mid-fault request a sweep at the next
        # access boundary; the kernel must not retire that access itself.
        workload = build("quicksort", seed=7, array_pages=400)
        trace = list(workload.trace())
        # Split just before a second touch of one page: a resident hit
        # the kernel would otherwise retire.
        split = next(
            i for i in range(3_000, len(trace))
            if trace[i][1] >> PAGE_SHIFT == trace[i - 1][1] >> PAGE_SHIFT
        )
        sweeps = {}
        for fast in (True, False):
            machine = make_machine(workload, system, 0.25, quiet_fabric(7),
                                   check_invariants=True)
            machine.run(trace[:split], use_fast_path=fast)
            machine._sanitize_after_recovery = True
            check = machine.sanitizer.check
            log = sweeps[fast] = []

            def spy(machine=machine, check=check, log=log):
                log.append(machine.accesses)
                check()

            machine.sanitizer.check = spy
            machine.run(trace[split:], use_fast_path=fast)
        assert sweeps[True] == sweeps[False]
        assert sweeps[True][0] == split + 1

    @pytest.mark.parametrize("system", ["fastswap", "hopp"])
    def test_drain_between_runs(self, system):
        machine, _ = self._both(system, "empty", drain_at=4_000)
        assert machine.repair.pages_drained > 0
