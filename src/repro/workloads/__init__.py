"""Workload suite: the 15 Table-IV applications plus microbenchmarks."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.workloads.base": ("Access", "ProcessSpec", "Workload"),
        "repro.workloads.registry": (
            "ALL_APPS",
            "NON_JVM_APPS",
            "SPARK_APPS",
            "build",
            "names",
            "register",
        ),
    },
)
