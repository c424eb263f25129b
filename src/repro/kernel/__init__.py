"""Virtual-memory-subsystem substrate: page tables, frames, swap,
cgroups, reclaim, and VMAs."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.kernel.cgroup": (
            "CgroupManager",
            "CgroupOverLimitError",
            "MemoryCgroup",
        ),
        "repro.kernel.frames": ("FrameAllocator", "OutOfFramesError"),
        "repro.kernel.page_table": ("PageTable", "Pte", "PteState"),
        "repro.kernel.reclaim": ("LruPageList", "Reclaimer", "ReclaimStats"),
        "repro.kernel.swap": ("SwapCache", "SwapSpace"),
        "repro.kernel.vma": ("VmaMap", "VmaRegistry"),
    },
)
