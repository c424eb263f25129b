"""Core value types passed between subsystems.

Hot simulation loops use plain integers and tuples internally; these
dataclasses define the public-facing records at module boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.compat import slotted_dataclass
from repro.common.constants import BLOCK_SHIFT, PAGE_SHIFT


class PageKind(enum.IntEnum):
    """Page size class carried in the reverse page table (Figure 6)."""

    BASE_4K = 0
    HUGE_2M = 1
    HUGE_1G = 2


@dataclass(frozen=True)
class MemoryAccess:
    """One cacheline-granular reference seen at the memory controller.

    ``vaddr`` is a byte address in the issuing process's virtual address
    space.  ``is_write`` distinguishes READ from WRITE traffic; the HPD
    only consumes READs (Section III-B).
    """

    pid: int
    vaddr: int
    is_write: bool = False

    @property
    def vpn(self) -> int:
        return self.vaddr >> PAGE_SHIFT

    @property
    def block(self) -> int:
        """Cacheline index within the page."""
        return (self.vaddr >> BLOCK_SHIFT) & ((1 << (PAGE_SHIFT - BLOCK_SHIFT)) - 1)


@dataclass(frozen=True)
class HotPage:
    """A hot page extracted by the HPD and resolved through the RPT cache.

    This is the record HoPP hardware writes to the reserved hot-page DRAM
    area (step 2 in Figure 4), consumed by the training framework.
    """

    pid: int
    vpn: int
    timestamp_us: float
    shared: bool = False
    kind: PageKind = PageKind.BASE_4K


@slotted_dataclass(frozen=True)
class PrefetchRequest:
    """A finalized prefetch decision sent to the execution engine.

    ``tier`` records which algorithm produced the request ("ssp", "lsp",
    "rsp", or a baseline name) so benches can attribute coverage per tier
    (Figures 19-20).
    """

    pid: int
    vpn: int
    tier: str
    issued_at_us: float
    stream_id: int = -1


@slotted_dataclass()
class StreamObservation:
    """What the Stream Training Table hands to the tier algorithms.

    ``vpn_history`` holds the last L VPNs of the stream (oldest first) and
    ``stride_history`` the corresponding L-1 strides, exactly the inputs of
    Algorithms 1 and 2 in the paper.

    ``stride_counts`` is an optional precomputed non-zero-stride
    histogram of ``stride_history`` (the STT maintains one incrementally
    per stream).  It is a live view, valid until the stream's next hot
    page; SSP consumes it synchronously.  None means "not provided" —
    consumers recount from ``stride_history``.

    This is a snapshot.  On the data plane's hot path the tiers are
    handed the STT entry itself (:class:`repro.hopp.stt.SttEntry`),
    which offers the same attributes over its live deques; tier code
    therefore only indexes histories from either end, iterates them,
    or copies them with ``tuple()`` before slicing.
    """

    pid: int
    vpn: int
    stride: int
    vpn_history: Tuple[int, ...]
    stride_history: Tuple[int, ...]
    stream_id: int
    timestamp_us: float = 0.0
    stride_counts: Optional[dict] = None


@slotted_dataclass()
class PrefetchDecision:
    """Raw output of one tier algorithm, before the policy engine applies
    the prefetch offset and intensity knobs.

    The final target VPN for offset ``i`` is
    ``base_vpn + stride_target + i * pattern_stride`` for LSP, and
    ``base_vpn + i * stride_target`` for SSP/RSP, matching the send steps
    of Algorithms 1 and 2.  ``per_offset_stride`` is the stride multiplied
    by the offset; ``fixed_delta`` is added once regardless of offset.
    """

    tier: str
    base_vpn: int
    per_offset_stride: int
    fixed_delta: int = 0

    def target_vpn(self, offset: int) -> int:
        return self.base_vpn + self.fixed_delta + offset * self.per_offset_stride


@dataclass(frozen=True)
class TraceRecord:
    """HMTT-format trace record (Section V): 8-bit sequence number, 8-bit
    timestamp, 1-bit read/write flag, and the physical address."""

    seq: int
    timestamp: int
    is_write: bool
    paddr: int

    @property
    def ppn(self) -> int:
        return self.paddr >> PAGE_SHIFT


@slotted_dataclass()
class RptEntry:
    """Reverse-page-table entry (Figure 6): PPN -> PID + VPN + flags."""

    pid: int
    vpn: int
    shared: bool = False
    kind: PageKind = PageKind.BASE_4K


@dataclass
class FaultBreakdown:
    """Per-category microsecond totals accumulated by the fault path."""

    dram_hit_us: float = 0.0
    prefetch_hit_us: float = 0.0
    remote_fault_us: float = 0.0
    inflight_wait_us: float = 0.0
    reclaim_us: float = 0.0

    @property
    def total_us(self) -> float:
        return (
            self.dram_hit_us
            + self.prefetch_hit_us
            + self.remote_fault_us
            + self.inflight_wait_us
            + self.reclaim_us
        )


@dataclass
class VmaRegion:
    """A virtual memory area: [start_vpn, end_vpn) with a name for debug."""

    start_vpn: int
    end_vpn: int
    name: str = ""
    pid: int = 0

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def npages(self) -> int:
        return self.end_vpn - self.start_vpn
