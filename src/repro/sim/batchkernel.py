"""Chunked batch kernel: :meth:`Machine.run`'s batched replay engine.

A per-access loop pays Python dispatch per reference: unpack, arrival
check, PTE probe, LRU touch, tap call.  This kernel restructures the
replay around the observation (DRackSim-style interval simulation;
HMTT's burst-drain tap) that between *barriers* the machine's event
state is frozen:

* no prefetch arrival is due (the arrivals heap only changes inside
  :meth:`Machine.access` excursions and prefetch issue),
* no timed event is due: the health monitor's heartbeat, the repair
  engine's next issue (or patrol-scrub audit), both folded into
  :meth:`Machine.next_event_us`, and the sanitizer's next sweep, an
  access-count deadline,
* residency cannot change (only faults, prefetch issue/arrival, and
  eviction move PTEs, and all of those happen inside
  :meth:`Machine.access` or the HoPP extraction pipeline),
* the HPD table only moves when it is fed.

So the trace is scanned ahead into *same-page runs* — maximal spans of
consecutive accesses by one pid to one vpn — bounded by the next
barrier: the chunk edge, a due prefetch arrival or timed event
(computed as a conservative closed-form access budget, below), the
sanitizer's access-count deadline, a residency miss, or an HPD
extraction (which re-enters the machine through the HoPP pipeline and
may issue prefetches, evict pages, and mutate the arrivals heap).
Each run is then retired with O(1) bookkeeping instead of O(run):

* HPD counters collapse via :meth:`HotPageDetector.process_run` (one
  probe, one ``move_to_end``, integer bumps sized by the run); the
  multi-channel detector takes the per-access
  :meth:`MultiChannelHpd.process_batch` path because interleaving
  spreads one page's cachelines across channels,
* the LRU touch is applied once per run (touching an already-MRU key
  again is a no-op, so consecutive duplicates collapse exactly),
* MC read/write/byte counters accumulate in locals and flush at
  extraction barriers and at the chunk edge.

Only the float accumulators (``now_us``, ``compute_us``,
``dram_hit_us``) still take one step per access, because they must
advance by *the same sequence of float additions* as the oracle.  Per
access the oracle computes ``cost = T_DRAM_HIT_US`` then ``cost +=
compute``, so the per-access ``now`` increment is exactly
``T_DRAM_HIT_US + compute`` rounded once, which is loop-invariant; each
sub-run adds it once per access (:func:`_seq_add3`) as it retires.

There is one chunk engine.  Each chunk is first normalised to columns
(pids, vaddrs, and is-write flags or None for a read-only chunk); one
pass of C-level iterators over the vpn column (and the pid column, when
the chunk holds more than one pid) finds every same-page run boundary,
and the engine walks runs instead of accesses.  Any chunk length
works, down to ``chunk_size=1``.

Exactness of the timed barriers: the oracle lands every arrival with
``arrivals[0][0] <= now`` before an access's residency check, and its
heartbeat, repair issue and scrub audit each fire at the first access
whose start time reaches their deadline.  So the kernel lands due
arrivals at the top of each step and then runs while
``min(arrivals[0][0], next_event_us()) > now``.  Within a run ``now``
advances by the constant ``cost0`` per access, so the number of
accesses that fit before the deadline has the closed form
``gap / cost0``; far from the deadline the kernel budgets
``int(gap / cost0) - 1`` accesses, whose slack (>= one full ``cost0`` =
at least T_DRAM_HIT_US) dwarfs the worst-case accumulated rounding
error of a <=4096-term float sum.  Within two accesses of the deadline
it counts the fitting accesses by repeating the oracle's own
``+= cost0`` additions, which is exact (and at least one, since nothing
is due at ``now``).  With the sanitizer armed the budget is also
clipped so the access whose 1-based count is a multiple of
``sanitizer_interval_accesses`` (or, after recovery events, the very
next access) is never retired in the kernel.

An access at which a timed event falls due, and a residency miss (a
missing, non-PRESENT, or prefetched PTE), both store the kernel's
locals into the machine and take exactly that access through
:meth:`Machine.access` — the only definition of a fault and of the
event order (arrivals, heartbeat, repair pump, sanitizer) — then
reload, re-reading the deadlines, which only :meth:`Machine.access` and
the extraction pipeline can move.  That keeps results byte-identical to
``use_fast_path=False`` (pinned by tests/test_fastpath.py and
tests/data/goldens_v1.json).  The kernel counts the barriers it takes,
by kind, into :attr:`Machine.replay_barriers`.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, islice
from operator import ne, or_
from typing import Optional

from repro.common.constants import BLOCK_SIZE, PAGE_SHIFT, T_DRAM_HIT_US
from repro.hopp.hpd import HotPageDetector, MultiChannelHpd
from repro.hopp.system import HoppDataPlane
from repro.kernel.page_table import PteState

PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1

#: Trace accesses buffered per chunk.  Also caps the constant-increment
#: float runs, keeping the arrival-budget rounding analysis (<= 4096
#: sequential additions) valid.
DEFAULT_CHUNK = 4096

#: Barrier kinds counted into :attr:`Machine.replay_barriers`: a due
#: prefetch arrival landed, a residency miss, an HPD extraction, a timed
#: event (heartbeat, repair/scrub issue, sanitizer sweep) falling due,
#: and the end of a chunk.
BARRIER_KINDS = ("arrival", "residency_miss", "extraction", "timed_event",
                 "chunk_edge")

#: Access-count deadline standing for "no sanitizer armed".
_NO_LIMIT = 1 << 62


def _seq_add3(a, b, c, ca, cb, cc, k):
    """Advance three accumulators by ``k`` sequential additions each
    (``a += ca``, ``b += cb``, ``c += cc``): the per-access loop's own
    additions, in its order, so the results are bit-identical."""
    for _ in range(k):
        a += ca
        b += cb
        c += cc
    return a, b, c


def supports_batch_taps(machine) -> bool:
    """True when the machine's tap wiring is exactly the stock HoPP data
    plane's MC tap with a detector the kernel knows how to batch.

    The kernel runs the HPD itself and enters the plane at
    ``on_hot_page``, so it must know that ``on_mc_access`` is the stock
    one: a subclass that overrides the tap (the Section V prototype's
    trace ring, for one) would be bypassed.  Hence the exact-type check;
    anything else (HMTT tracers, benchmark-registered extra planes,
    subclassed planes) makes :meth:`Machine.run` replay through the
    per-access oracle loop.
    """
    plane = machine.hopp
    if type(plane) is not HoppDataPlane:
        return False
    taps = machine.controller._taps
    if len(taps) != 1 or taps[0] != plane.on_mc_access:
        return False
    return type(plane.hpd) in (HotPageDetector, MultiChannelHpd)


class BatchKernel:
    """One trace replay through the chunked batch engine.

    ``plane`` is the machine's HoPP data plane for the tapped variant,
    or None for the untapped baselines (same chunking, no HPD work).
    """

    def __init__(self, machine, plane=None, chunk_size: Optional[int] = None):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.machine = machine
        self.plane = plane
        self.chunk = chunk_size or DEFAULT_CHUNK

    def _deadlines(self, accesses: int):
        """The machine's live deadlines, for a kernel that has retired
        ``accesses`` accesses: ``(next_event_us, alimit)``.  Once the
        retired count reaches ``alimit`` the next access is a sanitizer
        sweep (an interval multiple, or right away after recovery
        events) and must go through :meth:`Machine.access`."""
        m = self.machine
        if m.sanitizer is None:
            alimit = _NO_LIMIT
        elif m._sanitize_after_recovery:
            alimit = accesses
        else:
            interval = m.config.sanitizer_interval_accesses
            alimit = (accesses // interval + 1) * interval - 1
        return m.next_event_us(), alimit

    def run(self, trace) -> None:
        chunk = self.chunk
        vector = self._chunk_vector
        it = iter(trace)
        while True:
            buf = list(islice(it, chunk))
            if not buf:
                break
            # Normalise the chunk to columns.  The arity check comes
            # first because zip truncates silently: a stray 3-tuple in a
            # mostly-2-tuple chunk would lose its write.
            arities = set(map(len, buf))
            if arities == {2}:
                pids, vaddrs = zip(*buf)
                writes = None
            elif arities == {3}:
                pids, vaddrs, writes = zip(*buf)
            else:
                pids = [item[0] for item in buf]
                vaddrs = [item[1] for item in buf]
                writes = [len(item) == 3 and bool(item[2]) for item in buf]
            vector(pids, vaddrs, writes)

    def _chunk_vector(self, pids_t, vaddrs_t, writes_t) -> None:
        """Replay one chunk with precomputed run boundaries.

        ``pids_t``/``vaddrs_t``/``writes_t`` are the chunk's columns
        (``writes_t`` None for a read-only chunk).
        """
        m = self.machine
        plane = self.plane
        arrivals = m._arrivals
        tables = m._page_tables
        lru_of_pid = m._lru_of_pid
        present = PteState.PRESENT
        breakdown = m.breakdown
        controller = m.controller
        compute = m.config.compute_us_per_access
        t_dram = T_DRAM_HIT_US
        cost0 = t_dram + compute
        page_shift = PAGE_SHIFT
        offset_mask = PAGE_OFFSET_MASK
        process_arrivals = m._process_arrivals
        access = m.access
        #: Armed health monitor or sanitizer: access() has timed work,
        #: so the kernel also stops at ``tdue`` (simulated time) and at
        #: ``alimit`` (retired-access count).  Only access() and the
        #: extraction pipeline can move them (arrival landing cannot),
        #: so they are re-read after each of those barriers.
        timed = m.health is not None or m.sanitizer is not None
        deadlines = self._deadlines
        tdue, alimit = deadlines(m.accesses) if timed else (math.inf, _NO_LIMIT)
        #: An armed health monitor always has a next heartbeat, so
        #: ``tdue`` is finite exactly when ``clocked``.
        clocked = m.health is not None
        n_arrival = n_miss = n_extract = n_timed = 0

        hpd = plane.hpd if plane is not None else None
        single = type(hpd) is HotPageDetector
        multi = hpd is not None and not single
        process_run = hpd.process_run if single else None
        on_hot_page = plane.on_hot_page if plane is not None else None

        hot: dict = {}
        seq_add3 = _seq_add3

        n = len(pids_t)
        # Every same-page run boundary, found at C level: the indices
        # whose vpn (or, in a chunk of several pids, pid) differs from
        # the previous access's.  The main loop then walks runs, not
        # accesses.
        vpns = [vaddr >> page_shift for vaddr in vaddrs_t]
        changed = map(ne, vpns, vpns[1:])
        if pids_t.count(pids_t[0]) != n:
            changed = map(or_, changed, map(ne, pids_t, pids_t[1:]))
        bounds = [*compress(range(1, n), changed), n]
        # wr_cum[j] = number of writes among the chunk's first j
        # accesses; O(1) write counts for any sub-run even when a
        # budget barrier splits it.  A flag counts by its truth, as in
        # access(): a raw ``2`` is one write, not two.
        wr_cum = (
            None
            if writes_t is None
            else list(accumulate(map(bool, writes_t), initial=0))
        )

        i = 0
        b = 0
        end = bounds[0]
        now = m.now_us
        accesses = m.accesses
        compute_us = m.compute_us
        dram = breakdown.dram_hit_us
        mc_reads = 0
        mc_writes = 0
        while i < n:
            if i >= end:
                b += 1
                end = bounds[b]
                continue
            pid = pids_t[i]
            vpn = vpns[i]
            # -- barrier checks: due/imminent arrival, residency --------
            if arrivals and arrivals[0][0] <= now:
                # Barrier: due arrivals land before this access's
                # residency check, exactly where access() lands them.
                n_arrival += 1
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                process_arrivals(now)
                dram = breakdown.dram_hit_us
            cached = hot.get(pid)
            if cached is None:
                cached = hot[pid] = (tables[pid]._entries, lru_of_pid(pid))
            pte = cached[0].get(vpn)
            if (
                pte is None or pte.state is not present or pte.prefetched
                or (timed and (now >= tdue or accesses >= alimit))
            ):
                # Barrier: residency miss, or a timed event due at this
                # access.  Take this one access through Machine.access
                # (which lands nothing new, then ticks, pumps and
                # sanitizes exactly as the oracle does), and reload.
                if pte is None or pte.state is not present or pte.prefetched:
                    n_miss += 1
                else:
                    n_timed += 1
                m.now_us = now
                m.accesses = accesses
                m.compute_us = compute_us
                breakdown.dram_hit_us = dram
                access(pid, vaddrs_t[i], False if writes_t is None else writes_t[i])
                now = m.now_us
                accesses = m.accesses
                compute_us = m.compute_us
                dram = breakdown.dram_hit_us
                if timed:
                    tdue, alimit = deadlines(accesses)
                i += 1
                continue
            if arrivals or clocked:
                due = arrivals[0][0] if arrivals else tdue
                if due > tdue:
                    due = tdue
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
            if timed and budget > alimit - accesses:
                budget = alimit - accesses
            # -- the sub-run is [i, limit): the precomputed run clipped
            # by the deadline budgets -------------------------------------
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
                if reads:
                    reads_used, fired = process_run(pte.ppn, reads)
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
            now, dram, compute_us = seq_add3(
                now, dram, compute_us, cost0, t_dram, compute, consumed
            )
            # -- barrier: extraction pipeline ---------------------------
            if hot_ppn is not None:
                n_extract += 1
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
                if timed:
                    tdue, alimit = deadlines(accesses)
        m.now_us = now
        m.accesses = accesses
        m.compute_us = compute_us
        breakdown.dram_hit_us = dram
        controller.reads += mc_reads
        controller.writes += mc_writes
        controller.bytes_transferred += (mc_reads + mc_writes) * BLOCK_SIZE
        counts = m.replay_barriers
        counts["arrival"] += n_arrival
        counts["residency_miss"] += n_miss
        counts["extraction"] += n_extract
        counts["timed_event"] += n_timed
        counts["chunk_edge"] += 1
