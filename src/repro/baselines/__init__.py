"""Kernel-based baseline prefetchers the paper compares against."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.baselines.base": ("FaultTimePrefetcher", "NoPrefetch"),
        "repro.baselines.depthn": ("DepthNPrefetcher",),
        "repro.baselines.fastswap": ("FastswapPrefetcher",),
        "repro.baselines.leap": ("LeapPrefetcher",),
        "repro.baselines.vma_readahead": ("VmaReadaheadPrefetcher",),
    },
)
