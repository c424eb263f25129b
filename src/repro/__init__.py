"""HoPP: Hardware-Software Co-Designed Page Prefetching for Disaggregated
Memory (HPCA 2023) — a from-scratch, trace-driven full-system reproduction.

Quickstart::

    import repro

    wl = repro.workloads.build("omp-kmeans", seed=7)
    result = repro.run(wl, "hopp", local_memory_fraction=0.5)
    ct_local = repro.local_completion_time(wl)
    print(result.accuracy, result.coverage,
          result.normalized_performance(ct_local))

Subpackages:

* ``repro.hopp``      — the paper's contribution: HPD, RPT (+cache),
  stream training table, SSP/LSP/RSP tiers, policy and execution engines.
* ``repro.baselines`` — Fastswap, Leap, Depth-N, VMA read-ahead.
* ``repro.kernel``    — page tables, frames, swap, reclaim, cgroups.
* ``repro.memsim``    — caches and the memory controller with taps.
* ``repro.net``       — RDMA fabric + remote memory node.
* ``repro.trace``     — HMTT-format full-trace capture.
* ``repro.sim``       — the machine simulator, runner, metrics.
* ``repro.workloads`` — the 15 Table-IV applications + microbenchmarks.
* ``repro.analysis``  — offline pattern study, report formatting.

Every package exports its names lazily: ``import repro`` loads no
simulator code, and each name is imported the first time it is read.
"""

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.sim.machine": ("Machine", "MachineConfig"),
        "repro.sim.metrics": ("RunResult",),
        "repro.sim.multiprogram": ("run_corun",),
        "repro.sim.runner": (
            "Comparison",
            "compare",
            "local_completion_time",
            "make_machine",
            "run",
        ),
        "repro.sim.systems": ("SystemSpec",),
    },
    modules={
        **{
            name: f"repro.{name}"
            for name in (
                "analysis", "baselines", "cluster", "common", "exec", "hopp",
                "integrity", "kernel", "memsim", "memtier", "net", "scenario",
                "sim", "telemetry", "trace", "tune", "workloads",
            )
        },
        "systems": "repro.sim.systems",
    },
)
__all__.append("__version__")
