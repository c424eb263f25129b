"""Stream Training Table (STT) — Section III-D, Figure 7.

64 LRU-managed entries, each a potential page stream for one PID.  An
entry keeps the last L VPNs received (``VPN_history``) and the L-1
derived strides.  A new hot page joins a stream when the PID matches and
its VPN is within Delta_stream pages of the stream's most recent VPN
(the pages-clustering technique of Section II-B); otherwise a new entry
is allocated, evicting the LRU one.

Once an entry's history is full, every further hot page appended to it
yields a :class:`StreamObservation` for the tier algorithms.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import field
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.compat import slotted_dataclass
from repro.common.constants import STT_ENTRIES, STT_HISTORY_LEN, STT_STREAM_DELTA
from repro.common.types import StreamObservation


@slotted_dataclass()
class SttEntry:
    stream_id: int
    pid: int
    vpns: Deque[int]
    #: Strides between consecutive VPNs; len == len(vpns) - 1.
    strides: Deque[int]
    #: Invariant: Counter of the non-zero strides currently in
    #: ``strides``, maintained incrementally by ``step`` so SSP's
    #: dominant-stride scan is O(distinct strides) per observation
    #: instead of O(history).
    stride_counts: Dict[int, int] = field(default_factory=dict)
    #: Mirror of ``vpns[-1]`` kept as a plain slot: ``step`` reads it
    #: once per scanned peer, and the deque indexing adds up.
    last: int = 0

    @property
    def last_vpn(self) -> int:
        return self.vpns[-1]

    # The StreamObservation protocol over the live window (see
    # StreamTrainingTable.step): tiers read these synchronously.

    @property
    def vpn(self) -> int:
        return self.last

    @property
    def stride(self) -> int:
        return self.strides[-1]

    @property
    def vpn_history(self) -> Deque[int]:
        return self.vpns

    @property
    def stride_history(self) -> Deque[int]:
        return self.strides


class StreamTrainingTable:
    def __init__(
        self,
        entries: int = STT_ENTRIES,
        history_len: int = STT_HISTORY_LEN,
        stream_delta: int = STT_STREAM_DELTA,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if history_len < 4:
            raise ValueError("history_len must be >= 4 for LSP/RSP to work")
        self.capacity = entries
        self.history_len = history_len
        self.stream_delta = stream_delta
        #: stream_id -> entry; ordering encodes recency (last = MRU).
        self._entries: "OrderedDict[int, SttEntry]" = OrderedDict()
        #: pid -> (stream_id -> entry), mirroring ``_entries``'s recency
        #: order among that pid's streams; lets ``step`` scan only the
        #: pid's own streams with an identical tie-break order.
        self._by_pid: Dict[int, "OrderedDict[int, SttEntry]"] = {}
        self._next_stream_id = 0
        self.hot_pages_in = 0
        self.duplicates_dropped = 0
        self.observations_out = 0
        self.streams_created = 0
        self.streams_evicted = 0

    # -- feeding hot pages ---------------------------------------------------------

    def step(self, pid: int, vpn: int) -> Optional[SttEntry]:
        """Insert one hot page; returns the matched stream when its
        history is full (training can run), else None.

        The returned entry is a *live* observation: its
        ``vpn_history``/``stride_history``/``stride_counts`` are the
        stream's own window, valid until its next hot page.  The data
        plane trains on it synchronously, so nothing is copied on the
        hot path; :meth:`feed` snapshots it for everyone else.
        """
        self.hot_pages_in += 1
        # Closest stream with the same PID within Delta_stream pages.
        # Only the pid's own streams are scanned (``_by_pid``); their
        # relative recency order matches ``_entries``, so the strict
        # ``<`` tie-break (first-scanned wins among equal distances)
        # picks the same entry a full-table scan would.
        peers = self._by_pid.get(pid)
        entry = None
        if peers:
            best_distance = self.stream_delta + 1
            for peer in peers.values():
                distance = vpn - peer.last
                if distance < 0:
                    distance = -distance
                if distance < best_distance:
                    entry = peer
                    best_distance = distance
        if entry is None:
            self._allocate(pid, vpn)
            return None
        stream_id = entry.stream_id
        self._entries.move_to_end(stream_id)
        peers.move_to_end(stream_id)
        last = entry.last
        if vpn == last:
            # Repeated extraction of the same page (multi-channel dedup,
            # Section III-B) — no new information.
            self.duplicates_dropped += 1
            return None
        stride = vpn - last
        strides = entry.strides
        counts = entry.stride_counts
        if len(strides) == strides.maxlen:
            # Appending will drop the oldest stride out of the window.
            old = strides[0]
            if old:
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
        vpns = entry.vpns
        vpns.append(vpn)
        entry.last = vpn
        strides.append(stride)
        if stride:
            counts[stride] = counts.get(stride, 0) + 1
        if len(vpns) < self.history_len:
            return None
        self.observations_out += 1
        return entry

    def feed(self, pid: int, vpn: int, now_us: float = 0.0) -> Optional[StreamObservation]:
        """:meth:`step`, returning an immutable snapshot of the trained
        stream instead of the live entry (offline consumers and tests
        keep observations around)."""
        entry = self.step(pid, vpn)
        if entry is None:
            return None
        strides = entry.strides
        return StreamObservation(
            pid=pid,
            vpn=vpn,
            stride=strides[-1],
            vpn_history=tuple(entry.vpns),
            stride_history=tuple(strides),
            stream_id=entry.stream_id,
            timestamp_us=now_us,
            stride_counts=entry.stride_counts,
        )

    def feed_batch(self, hot_pages, now_us: float = 0.0) -> List[StreamObservation]:
        """Feed a batch of ``(pid, vpn)`` hot pages at one timestamp.

        Returns the observations the batch produced, in feed order —
        exactly ``[feed(pid, vpn, now_us) for ...]`` with the Nones
        dropped.  The batch kernel enters the pipeline one extraction at
        a time (an extraction can issue prefetches that change what the
        next one sees), so this is for offline consumers: trace-driven
        training, multi-channel drain sweeps, and tests.
        """
        feed = self.feed
        out: List[StreamObservation] = []
        append = out.append
        for pid, vpn in hot_pages:
            observation = feed(pid, vpn, now_us)
            if observation is not None:
                append(observation)
        return out

    # -- internals -------------------------------------------------------------------

    def _allocate(self, pid: int, vpn: int) -> SttEntry:
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            del self._by_pid[victim.pid][victim.stream_id]
            self.streams_evicted += 1
        entry = SttEntry(
            stream_id=self._next_stream_id,
            pid=pid,
            vpns=deque([vpn], maxlen=self.history_len),
            strides=deque(maxlen=self.history_len - 1),
            stride_counts={},
            last=vpn,
        )
        self._next_stream_id += 1
        self.streams_created += 1
        self._entries[entry.stream_id] = entry
        peers = self._by_pid.get(pid)
        if peers is None:
            peers = self._by_pid[pid] = OrderedDict()
        peers[entry.stream_id] = entry
        return entry

    # -- introspection ------------------------------------------------------------------

    def streams(self) -> List[SttEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
