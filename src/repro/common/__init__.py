"""Shared primitives: constants, value types, LRU structures, statistics."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.common.assoc": ("LruDict", "SetAssociativeTable"),
        "repro.common.stats": ("CounterSet", "Histogram", "RunningStat", "safe_ratio"),
        "repro.common.types": (
            "FaultBreakdown",
            "HotPage",
            "MemoryAccess",
            "PageKind",
            "PrefetchDecision",
            "PrefetchRequest",
            "RptEntry",
            "StreamObservation",
            "TraceRecord",
            "VmaRegion",
        ),
    },
    modules={
        "constants": "repro.common.constants",
    },
)
