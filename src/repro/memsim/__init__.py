"""Memory-hierarchy substrate: caches, hierarchy, memory controller."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.memsim.cache": ("Cache", "CacheAccessResult", "CacheHierarchy"),
        "repro.memsim.controller": ("MemoryController",),
        "repro.memsim.tlb": ("Tlb", "TlbStats"),
    },
)
