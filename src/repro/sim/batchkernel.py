"""Chunked batch kernel for :meth:`Machine.run`'s fast path.

The per-access fast loops (PR 4) still paid Python dispatch per
reference: unpack, arrival check, PTE probe, LRU touch, tap call.  This
kernel restructures the tapped and untapped fast paths around the
observation (DRackSim-style interval simulation; HMTT's burst-drain tap)
that between *barriers* the machine's event state is frozen:

* no prefetch arrival is due (the arrivals heap only changes inside
  slow-path excursions and prefetch issue),
* residency cannot change (only faults, prefetch issue/arrival, and
  eviction move PTEs, and all of those happen on the slow path or
  inside the HoPP extraction pipeline),
* the HPD table only moves when it is fed.

So the trace is scanned ahead into *same-page runs* — maximal spans of
consecutive accesses by one pid to one vpn — bounded by the next
barrier: the chunk edge, a due prefetch arrival (computed as a
conservative closed-form access budget, below), a residency miss, or an
HPD extraction (which re-enters the machine through the HoPP pipeline
and may issue prefetches, evict pages, and mutate the arrivals heap).
Each run is then retired with O(1) bookkeeping instead of O(run):

* HPD counters collapse via :meth:`HotPageDetector.process_run` (one
  probe, one ``move_to_end``, integer bumps sized by the run); the
  multi-channel detector takes the per-access
  :meth:`MultiChannelHpd.process_batch` path because interleaving
  spreads one page's cachelines across channels,
* the LRU touch is applied once per run (touching an already-MRU key
  again is a no-op, so consecutive duplicates collapse exactly),
* MC read/write/byte counters accumulate in locals and flush once per
  run (and once at end of run for the machine-level counters), matching
  the PR-4 loops' batching,
* the float accumulators (``now_us``, ``compute_us``,
  ``dram_hit_us``) advance by *the same sequence of float additions*
  as the oracle — per access the oracle computes
  ``cost = T_DRAM_HIT_US`` then ``cost += compute``, so the per-access
  ``now`` increment is exactly ``T_DRAM_HIT_US + compute`` rounded
  once, which is loop-invariant.  Resident retirements are therefore
  *deferred*: the kernel counts them and replays the addition chain
  (Python fold for short chains, 1-D ``numpy.cumsum`` for long ones —
  both perform identical sequential additions, verified bit-for-bit)
  at the next barrier that actually reads the accumulators.

Two chunk engines share that retirement logic:

* the *vector* engine (numpy available, uniform tuple arity) converts
  the chunk to arrays once, finds all same-page run boundaries with a
  single vectorized comparison, and walks runs instead of accesses;
* the *scalar* engine scans ahead access-by-access and is the fallback
  for mixed/odd traces, tiny chunks, and numpy-less environments.

Exactness of the arrival barrier: the oracle lands every arrival with
``arrivals[0][0] <= now`` before an access's residency check, so the
kernel does the same at the top of each step and then runs while
``arrivals[0][0] > now``.  Within a run ``now`` advances by the
constant ``cost0`` per access, so the number of accesses that fit
before the deadline has the closed form ``gap / cost0``; far from the
deadline the kernel budgets ``int(gap / cost0) - 1`` accesses, whose
slack (>= one full ``cost0`` = at least T_DRAM_HIT_US) dwarfs the
worst-case accumulated rounding error of a <=4096-term float sum.
Within two accesses of the deadline it counts the fitting accesses by
repeating the oracle's own ``+= cost0`` additions, which is exact (and
at least one, since nothing is due at ``now``).  Deferred chains never
span an arrival check: a pending chain exists only while the arrivals
heap is empty, and every slow-path entry, extraction, and chunk edge
flushes it.

Anything else — a missing/non-PRESENT/prefetched PTE, an unknown HPD
implementation, extra taps — exits to the existing slow path, keeping
results byte-identical to ``use_fast_path=False`` (pinned by
tests/test_fastpath.py and tests/data/goldens_v1.json).
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

try:  # numpy only accelerates long runs; the kernel runs without it
    import numpy as np
except ImportError:  # pragma: no cover - environment without numpy
    np = None

from repro.common.constants import BLOCK_SIZE, PAGE_SHIFT, T_DRAM_HIT_US
from repro.hopp.hpd import HotPageDetector, MultiChannelHpd
from repro.hopp.system import HoppDataPlane
from repro.kernel.page_table import PteState

PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1

#: Trace accesses buffered per chunk.  Also caps the constant-increment
#: float runs, keeping the arrival-budget rounding analysis (<= 4096
#: sequential additions) valid.
DEFAULT_CHUNK = 4096

#: Below this chunk population the vector engine's array-conversion
#: overhead exceeds the scalar scan's cost.
MIN_VECTOR_CHUNK = 16

#: Chain length at which replaying deferred additions switches from a
#: Python fold to one ``numpy.cumsum`` pass (bit-identical either way).
CUMSUM_MIN = 32


def _seq_add(x0, c, k, seq_buf, cumsum):
    """``x0`` after ``k`` sequential ``+= c`` additions.

    Performs the exact float-addition chain the oracle's per-access
    loop would: a 1-D cumsum adds elements left to right one at a time,
    so both branches produce bit-identical results (pinned by the
    differential tests)."""
    if k >= CUMSUM_MIN and seq_buf is not None:
        view = seq_buf[: k + 1]
        view[1:] = c
        view[0] = x0
        return float(cumsum(view)[k])
    while k:
        x0 += c
        k -= 1
    return x0


def _seq_add3(a, b, c, ca, cb, cc, k, buf3):
    """Advance three accumulators by ``k`` sequential additions each.

    Equivalent to three :func:`_seq_add` calls but pays one cumsum (a
    row-wise pass over a ``(3, k+1)`` view) instead of three.  Each row
    is summed left to right one element at a time, so every chain's
    result is bit-identical to the per-access loop's (pinned by the
    unit and differential tests)."""
    if k >= CUMSUM_MIN and buf3 is not None:
        view = buf3[:, : k + 1]
        view[0, 1:] = ca
        view[1, 1:] = cb
        view[2, 1:] = cc
        view[0, 0] = a
        view[1, 0] = b
        view[2, 0] = c
        out = view.cumsum(axis=1)
        return float(out[0, k]), float(out[1, k]), float(out[2, k])
    while k:
        a += ca
        b += cb
        c += cc
        k -= 1
    return a, b, c


def supports_batch_taps(machine) -> bool:
    """True when the machine's tap wiring is exactly the stock HoPP data
    plane's MC tap with a detector the kernel knows how to batch.

    The kernel runs the HPD itself and enters the plane at
    ``on_hot_page``, so it must know that ``on_mc_access`` is the stock
    one: a subclass that overrides the tap (the Section V prototype's
    trace ring, for one) would be bypassed.  Hence the exact-type check;
    anything else (HMTT tracers, benchmark-registered extra planes,
    subclassed planes) falls back to the per-access tapped loop.
    """
    plane = machine.hopp
    if type(plane) is not HoppDataPlane:
        return False
    taps = machine.controller._taps
    if len(taps) != 1 or taps[0] != plane.on_mc_access:
        return False
    return type(plane.hpd) in (HotPageDetector, MultiChannelHpd)


class BatchKernel:
    """One trace replay through the chunked fast path.

    ``plane`` is the machine's HoPP data plane for the tapped variant,
    or None for the untapped baselines (same chunking, no HPD work).
    """

    def __init__(self, machine, plane=None, chunk_size: Optional[int] = None):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.machine = machine
        self.plane = plane
        self.chunk = chunk_size or DEFAULT_CHUNK
        if np is not None:
            self.seq_buf = np.empty(self.chunk + 1)
            self.seq_buf3 = np.empty((3, self.chunk + 1))
        else:
            self.seq_buf = None
            self.seq_buf3 = None

    def run(self, trace) -> None:
        chunk = self.chunk
        scalar = self._chunk_scalar
        vector = self._chunk_vector
        it = iter(trace)
        while True:
            buf = list(islice(it, chunk))
            if not buf:
                break
            if np is None or len(buf) < MIN_VECTOR_CHUNK:
                scalar(buf)
                continue
            # Uniform tuple arity lets one zip transpose the chunk;
            # mixed/odd traces take the scalar scan.  The arity check
            # comes first because zip truncates silently: a stray
            # 3-tuple in a mostly-2-tuple chunk would lose its write.
            arities = set(map(len, buf))
            if arities == {2}:
                pids_t, vaddrs_t = zip(*buf)
                writes_t = None
            elif arities == {3}:
                pids_t, vaddrs_t, writes_t = zip(*buf)
            else:
                scalar(buf)
                continue
            vector(buf, pids_t, vaddrs_t, writes_t)

    # -- vector engine ---------------------------------------------------------

    def _chunk_vector(self, buf, pids_t, vaddrs_t, writes_t) -> None:
        """Replay one chunk with precomputed run boundaries.

        ``pids_t``/``vaddrs_t``/``writes_t`` are the transposed chunk
        columns (``writes_t`` None for read-only traces).
        """
        m = self.machine
        plane = self.plane
        arrivals = m._arrivals
        tables = m._page_tables
        lru_of_pid = m._lru_of_pid
        present = PteState.PRESENT
        untouched = PteState.UNTOUCHED
        swapcache = PteState.SWAPCACHE
        inflight = PteState.INFLIGHT
        breakdown = m.breakdown
        controller = m.controller
        compute = m.config.compute_us_per_access
        t_dram = T_DRAM_HIT_US
        cost0 = t_dram + compute
        page_shift = PAGE_SHIFT
        offset_mask = PAGE_OFFSET_MASK
        process_arrivals = m._process_arrivals
        count_prefetch_hit = m._count_prefetch_hit
        minor_fault = m._minor_fault
        swapcache_hit = m._swapcache_hit
        inflight_hit = m._inflight_hit
        major_fault = m._major_fault

        hpd = plane.hpd if plane is not None else None
        single = type(hpd) is HotPageDetector
        multi = hpd is not None and not single
        process_run = hpd.process_run if single else None
        hpd_process = hpd.process if hpd is not None else None
        on_hot_page = plane.on_hot_page if plane is not None else None

        if single:
            # Inline probe state for the sent-page fast case: a run on
            # an already-extracted page is pure counter math, deferred
            # into locals and flushed at the same barriers as the MC
            # counters (all additions commute).
            hpd_table = hpd._table
            hpd_sets = hpd_table._sets
            hpd_nsets = hpd_table.nsets
        dh_thits = 0  # deferred SetAssociativeTable.hits
        dh_acc = 0  # deferred HotPageDetector.accesses
        dh_drop = 0  # deferred dropped_after_send
        dh_wign = 0  # deferred writes_ignored

        hot: dict = {}
        buf3 = self.seq_buf3
        seq_add3 = _seq_add3

        n = len(buf)
        # One vectorized pass finds every same-page run boundary; the
        # main loop then walks runs, not accesses.
        va = np.array(vaddrs_t, dtype=np.int64)
        vp = va >> page_shift
        pd = np.array(pids_t, dtype=np.int64)
        same = (vp[1:] == vp[:-1]) & (pd[1:] == pd[:-1])
        bounds = (np.flatnonzero(~same) + 1).tolist()
        bounds.append(n)
        if writes_t is not None:
            # wr_cum[j] = number of writes in buf[:j]; O(1) write counts
            # for any sub-run even when a budget barrier splits it.
            wr_cum = np.concatenate(
                ([0], np.cumsum(np.array(writes_t, dtype=np.int64)))
            ).tolist()
        else:
            wr_cum = None

        i = 0
        b = 0
        end = bounds[0]
        now = m.now_us
        accesses = m.accesses
        compute_us = m.compute_us
        dram = breakdown.dram_hit_us
        mc_reads = 0
        mc_writes = 0
        #: Deferred resident retirements: number of pending
        #: ``+= cost0 / t_dram / compute`` additions.  Non-zero only
        #: while the arrivals heap is empty (flushed at every barrier).
        pend = 0
        while i < n:
            if i >= end:
                b += 1
                end = bounds[b]
                continue
            pid = pids_t[i]
            vaddr = vaddrs_t[i]
            vpn = vaddr >> page_shift
            # -- barrier checks: due/imminent arrival, residency --------
            if arrivals and arrivals[0][0] <= now:
                # Barrier: due arrivals land before this access's
                # residency check, exactly where access() lands them.
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                process_arrivals(now)
                dram = breakdown.dram_hit_us
            run_pte = None
            if arrivals:
                due = arrivals[0][0]
                budget = int((due - now) / cost0) - 1
                if budget < 2:
                    # Near the deadline the float slack would cost whole
                    # sub-runs; count the accesses that fit with the
                    # oracle's own additions instead.  Nothing is due
                    # at ``now``, so at least one does.
                    budget = 0
                    t = now
                    while t < due:
                        budget += 1
                        t += cost0
            else:
                budget = end - i
            cached = hot.get(pid)
            if cached is None:
                cached = hot[pid] = (tables[pid]._entries, lru_of_pid(pid))
            pte = cached[0].get(vpn)
            if (
                pte is not None
                and pte.state is present
                and not pte.prefetched
            ):
                run_pte = pte
            if run_pte is None:
                # ---- slow path: one access through the full fault
                # machinery, inlined from Machine.access (health and
                # sanitizer are None here by the dispatch gate).
                # Machine state is flushed before any re-entrant call
                # and reloaded after.
                if pend:
                    now, dram, compute_us = seq_add3(
                        now, dram, compute_us, cost0, t_dram, compute,
                        pend, buf3,
                    )
                    pend = 0
                if dh_acc or dh_wign:
                    hpd_table.hits += dh_thits
                    hpd.accesses += dh_acc
                    hpd.dropped_after_send += dh_drop
                    hpd.writes_ignored += dh_wign
                    dh_thits = dh_acc = dh_drop = dh_wign = 0
                is_write = False if writes_t is None else writes_t[i]
                accesses += 1
                table = tables[pid]
                pte = table.entry(vpn)
                state = pte.state
                if state is present:
                    cost = t_dram
                    dram += cost
                    cached[1].touch(pid, vpn)
                    if pte.prefetched:
                        m.now_us = now
                        m.accesses = accesses
                        m.compute_us = compute_us
                        breakdown.dram_hit_us = dram
                        count_prefetch_hit(pid, vpn, pte, "dram")
                        dram = breakdown.dram_hit_us
                else:
                    m.now_us = now
                    m.accesses = accesses
                    m.compute_us = compute_us
                    breakdown.dram_hit_us = dram
                    if state is untouched:
                        cost = minor_fault(pid, vpn, table, pte)
                    elif state is swapcache:
                        cost = swapcache_hit(pid, vpn, table, pte)
                    elif state is inflight:
                        cost = inflight_hit(pid, vpn, table, pte)
                    else:  # PteState.REMOTE
                        cost = major_fault(pid, vpn, table, pte)
                    now = m.now_us
                    accesses = m.accesses
                    compute_us = m.compute_us
                    dram = breakdown.dram_hit_us
                cost += compute
                compute_us += compute
                now += cost
                paddr = (pte.ppn << page_shift) | (vaddr & offset_mask)
                if is_write:
                    mc_writes += 1
                else:
                    mc_reads += 1
                if hpd_process is not None:
                    hot_ppn = hpd_process(paddr, is_write)
                    if hot_ppn is not None:
                        m.now_us = now
                        m.accesses = accesses
                        m.compute_us = compute_us
                        breakdown.dram_hit_us = dram
                        controller.reads += mc_reads
                        controller.writes += mc_writes
                        controller.bytes_transferred += (
                            mc_reads + mc_writes
                        ) * BLOCK_SIZE
                        mc_reads = 0
                        mc_writes = 0
                        on_hot_page(now, hot_ppn)
                        now = m.now_us
                        accesses = m.accesses
                        compute_us = m.compute_us
                        dram = breakdown.dram_hit_us
                i += 1
                continue
            pte = run_pte
            # -- the sub-run is [i, limit): the precomputed run clipped
            # by the arrival budget --------------------------------------
            limit = i + budget
            if limit > end:
                limit = end
            avail = limit - i
            nw = 0 if wr_cum is None else wr_cum[limit] - wr_cum[i]
            # -- HPD over the sub-run -----------------------------------
            consumed = avail
            hot_ppn = None
            if single:
                reads = avail - nw
                ppn = pte.ppn
                entry = hpd_sets[ppn % hpd_nsets].get(ppn)
                if entry is not None and entry.sent:
                    # Already-extracted page: every READ drops after
                    # send — pure deferred counter math, no extraction
                    # possible.  ``process``/``process_run`` would do
                    # one recency touch for the run's reads.
                    if reads:
                        hpd_sets[ppn % hpd_nsets].move_to_end(ppn)
                        dh_thits += reads
                        dh_acc += reads
                        dh_drop += reads
                    dh_wign += nw
                    mc_writes += nw
                    mc_reads += reads
                    accesses += avail
                    cached[1].touch(pid, vpn)
                    i += avail
                    if arrivals:
                        now, dram, compute_us = seq_add3(
                            now, dram, compute_us, cost0, t_dram, compute,
                            avail, buf3,
                        )
                    else:
                        pend += avail
                    continue
                if reads:
                    reads_used, fired = process_run(ppn, reads)
                    if fired:
                        hot_ppn = pte.ppn
                        if nw == 0:
                            consumed = reads_used
                        else:
                            seen = 0
                            for pos in range(i, limit):
                                if not writes_t[pos]:
                                    seen += 1
                                    if seen == reads_used:
                                        consumed = pos - i + 1
                                        break
                if nw:
                    if consumed == avail:
                        w_cons = nw
                    else:
                        w_cons = wr_cum[i + consumed] - wr_cum[i]
                    hpd.writes_ignored += w_cons
                    mc_writes += w_cons
                    mc_reads += consumed - w_cons
                else:
                    mc_reads += consumed
            elif multi:
                base = pte.ppn << page_shift
                paddrs = [
                    base | (v & offset_mask) for v in vaddrs_t[i:limit]
                ]
                flags = None if writes_t is None else writes_t[i:limit]
                consumed, hot_ppn = hpd.process_batch(paddrs, flags)
                if wr_cum is None:
                    w_cons = 0
                else:
                    w_cons = wr_cum[i + consumed] - wr_cum[i]
                mc_writes += w_cons
                mc_reads += consumed - w_cons
            else:
                mc_writes += nw
                mc_reads += avail - nw
            # -- retire the consumed accesses ---------------------------
            accesses += consumed
            cached[1].touch(pid, vpn)
            i += consumed
            # -- barrier: extraction pipeline ---------------------------
            if hot_ppn is not None:
                now, dram, compute_us = seq_add3(
                    now, dram, compute_us, cost0, t_dram, compute,
                    pend + consumed, buf3,
                )
                pend = 0
                if dh_acc or dh_wign:
                    hpd_table.hits += dh_thits
                    hpd.accesses += dh_acc
                    hpd.dropped_after_send += dh_drop
                    hpd.writes_ignored += dh_wign
                    dh_thits = dh_acc = dh_drop = dh_wign = 0
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                controller.reads += mc_reads
                controller.writes += mc_writes
                controller.bytes_transferred += (
                    mc_reads + mc_writes
                ) * BLOCK_SIZE
                mc_reads = 0
                mc_writes = 0
                on_hot_page(now, hot_ppn)
                now = m.now_us
                accesses = m.accesses
                compute_us = m.compute_us
                dram = breakdown.dram_hit_us
            elif arrivals:
                # Budget-limited sub-run: the next barrier check reads
                # ``now``, so the chain cannot stay deferred (pend is
                # already 0 — it only grows while arrivals is empty).
                now, dram, compute_us = seq_add3(
                    now, dram, compute_us, cost0, t_dram, compute,
                    consumed, buf3,
                )
            else:
                pend += consumed
        if pend:
            now, dram, compute_us = seq_add3(
                now, dram, compute_us, cost0, t_dram, compute, pend, buf3
            )
        if dh_acc or dh_wign:
            hpd_table.hits += dh_thits
            hpd.accesses += dh_acc
            hpd.dropped_after_send += dh_drop
            hpd.writes_ignored += dh_wign
        m.now_us = now
        m.accesses = accesses
        m.compute_us = compute_us
        breakdown.dram_hit_us = dram
        controller.reads += mc_reads
        controller.writes += mc_writes
        controller.bytes_transferred += (mc_reads + mc_writes) * BLOCK_SIZE

    # -- scalar engine ---------------------------------------------------------

    def _chunk_scalar(self, buf) -> None:
        """Access-by-access scan-ahead — the fallback engine for mixed
        tuple arities, tiny chunks, and numpy-less environments."""
        m = self.machine
        plane = self.plane
        arrivals = m._arrivals
        tables = m._page_tables
        lru_of_pid = m._lru_of_pid
        present = PteState.PRESENT
        untouched = PteState.UNTOUCHED
        swapcache = PteState.SWAPCACHE
        inflight = PteState.INFLIGHT
        breakdown = m.breakdown
        controller = m.controller
        compute = m.config.compute_us_per_access
        t_dram = T_DRAM_HIT_US
        # Per-access now_us increment: T_DRAM_HIT_US + compute, rounded
        # once — exactly the oracle's `cost` after its two assignments.
        cost0 = t_dram + compute
        page_shift = PAGE_SHIFT
        offset_mask = PAGE_OFFSET_MASK
        process_arrivals = m._process_arrivals
        count_prefetch_hit = m._count_prefetch_hit
        minor_fault = m._minor_fault
        swapcache_hit = m._swapcache_hit
        inflight_hit = m._inflight_hit
        major_fault = m._major_fault

        hpd = plane.hpd if plane is not None else None
        single = type(hpd) is HotPageDetector
        multi = hpd is not None and not single
        process_run = hpd.process_run if single else None
        hpd_process = hpd.process if hpd is not None else None
        on_hot_page = plane.on_hot_page if plane is not None else None

        hot: dict = {}
        flags: list = []  # reused per-run is-write flags (only when needed)
        vaddrs: list = []  # reused per-run vaddrs (multi-channel only)
        buf3 = self.seq_buf3
        seq_add3 = _seq_add3

        n = len(buf)
        i = 0
        now = m.now_us
        accesses = m.accesses
        compute_us = m.compute_us
        dram = breakdown.dram_hit_us
        mc_reads = 0
        mc_writes = 0
        while i < n:
            item = buf[i]
            if len(item) == 3:
                pid, vaddr, is_write = item
            else:
                pid, vaddr = item
                is_write = False
            # -- barrier checks: due/imminent arrival, residency ----
            if arrivals and arrivals[0][0] <= now:
                # Barrier: due arrivals land before this access's
                # residency check, exactly where access() lands them.
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                process_arrivals(now)
                dram = breakdown.dram_hit_us
            run_pte = None
            if arrivals:
                due = arrivals[0][0]
                budget = int((due - now) / cost0) - 1
                if budget < 2:
                    # Near the deadline the float slack would cost whole
                    # sub-runs; count the accesses that fit with the
                    # oracle's own additions instead.  Nothing is due
                    # at ``now``, so at least one does.
                    budget = 0
                    t = now
                    while t < due:
                        budget += 1
                        t += cost0
            else:
                budget = n
            cached = hot.get(pid)
            if cached is None:
                cached = hot[pid] = (tables[pid]._entries, lru_of_pid(pid))
            vpn = vaddr >> page_shift
            pte = cached[0].get(vpn)
            if (
                pte is not None
                and pte.state is present
                and not pte.prefetched
            ):
                run_pte = pte
            if run_pte is None:
                # ---- slow path: one access through the full fault
                # machinery, inlined from Machine.access (health and
                # sanitizer are None here by the dispatch gate).
                # Machine state is flushed before any re-entrant
                # call and reloaded after.
                accesses += 1
                table = tables[pid]
                pte = table.entry(vpn)
                state = pte.state
                if state is present:
                    cost = t_dram
                    dram += cost
                    cached[1].touch(pid, vpn)
                    if pte.prefetched:
                        m.now_us = now
                        m.accesses = accesses
                        m.compute_us = compute_us
                        breakdown.dram_hit_us = dram
                        count_prefetch_hit(pid, vpn, pte, "dram")
                        dram = breakdown.dram_hit_us
                else:
                    m.now_us = now
                    m.accesses = accesses
                    m.compute_us = compute_us
                    breakdown.dram_hit_us = dram
                    if state is untouched:
                        cost = minor_fault(pid, vpn, table, pte)
                    elif state is swapcache:
                        cost = swapcache_hit(pid, vpn, table, pte)
                    elif state is inflight:
                        cost = inflight_hit(pid, vpn, table, pte)
                    else:  # PteState.REMOTE
                        cost = major_fault(pid, vpn, table, pte)
                    now = m.now_us
                    accesses = m.accesses
                    compute_us = m.compute_us
                    dram = breakdown.dram_hit_us
                cost += compute
                compute_us += compute
                now += cost
                paddr = (pte.ppn << page_shift) | (vaddr & offset_mask)
                if is_write:
                    mc_writes += 1
                else:
                    mc_reads += 1
                if hpd_process is not None:
                    hot_ppn = hpd_process(paddr, is_write)
                    if hot_ppn is not None:
                        m.now_us = now
                        m.accesses = accesses
                        m.compute_us = compute_us
                        breakdown.dram_hit_us = dram
                        controller.reads += mc_reads
                        controller.writes += mc_writes
                        controller.bytes_transferred += (
                            mc_reads + mc_writes
                        ) * BLOCK_SIZE
                        mc_reads = 0
                        mc_writes = 0
                        on_hot_page(now, hot_ppn)
                        now = m.now_us
                        accesses = m.accesses
                        compute_us = m.compute_us
                        dram = breakdown.dram_hit_us
                i += 1
                continue
            pte = run_pte
            # -- scan the same-page run -----------------------------
            limit = i + budget
            if limit > n:
                limit = n
            j = i + 1
            nw = 1 if is_write else 0
            track = is_write or multi
            if track:
                del flags[:]
                flags.append(is_write)
            if multi:
                del vaddrs[:]
                vaddrs.append(vaddr)
            while j < limit:
                nxt = buf[j]
                if len(nxt) == 3:
                    npid, nvaddr, nwrite = nxt
                else:
                    npid, nvaddr = nxt
                    nwrite = False
                if npid != pid or (nvaddr >> page_shift) != vpn:
                    break
                if nwrite and not track:
                    del flags[:]
                    flags.extend([False] * (j - i))
                    track = True
                nw += nwrite
                if track:
                    flags.append(nwrite)
                if multi:
                    vaddrs.append(nvaddr)
                j += 1
            run_len = j - i
            # -- HPD over the run -----------------------------------
            consumed = run_len
            hot_ppn = None
            if single:
                reads = run_len - nw
                if reads:
                    reads_used, fired = process_run(pte.ppn, reads)
                    if fired:
                        hot_ppn = pte.ppn
                        if nw == 0:
                            consumed = reads_used
                        else:
                            seen = 0
                            for pos, f in enumerate(flags):
                                if not f:
                                    seen += 1
                                    if seen == reads_used:
                                        consumed = pos + 1
                                        break
                if nw:
                    if consumed == run_len:
                        w_cons = nw
                    else:
                        w_cons = 0
                        for f in flags[:consumed]:
                            w_cons += f
                    hpd.writes_ignored += w_cons
                    mc_writes += w_cons
                    mc_reads += consumed - w_cons
                else:
                    mc_reads += consumed
            elif multi:
                base = pte.ppn << page_shift
                paddrs = [base | (v & offset_mask) for v in vaddrs]
                consumed, hot_ppn = hpd.process_batch(paddrs, flags)
                w_cons = 0
                for f in flags[:consumed]:
                    w_cons += f
                mc_writes += w_cons
                mc_reads += consumed - w_cons
            else:
                if nw:
                    mc_writes += nw
                    mc_reads += run_len - nw
                else:
                    mc_reads += run_len
            # -- retire the consumed accesses -----------------------
            accesses += consumed
            now, dram, compute_us = seq_add3(
                now, dram, compute_us, cost0, t_dram, compute, consumed, buf3
            )
            cached[1].touch(pid, vpn)
            i += consumed
            # -- barrier: extraction pipeline -----------------------
            if hot_ppn is not None:
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                controller.reads += mc_reads
                controller.writes += mc_writes
                controller.bytes_transferred += (
                    mc_reads + mc_writes
                ) * BLOCK_SIZE
                mc_reads = 0
                mc_writes = 0
                on_hot_page(now, hot_ppn)
                now = m.now_us
                accesses = m.accesses
                compute_us = m.compute_us
                dram = breakdown.dram_hit_us
        m.now_us = now
        m.accesses = accesses
        m.compute_us = compute_us
        breakdown.dram_hit_us = dram
        controller.reads += mc_reads
        controller.writes += mc_writes
        controller.bytes_transferred += (mc_reads + mc_writes) * BLOCK_SIZE
