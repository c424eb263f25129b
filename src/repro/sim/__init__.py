"""Full-system simulator: machine, system registry, runner, metrics."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.sim.detailed": ("CacheFilter", "VolumeReport", "mmu_vs_mc_volumes"),
        "repro.sim.machine": ("Machine", "MachineConfig"),
        "repro.sim.metrics": ("RunResult",),
        "repro.sim.multiprogram": ("run_corun",),
        "repro.sim.runner": (
            "Comparison",
            "collect",
            "compare",
            "local_completion_time",
            "make_machine",
            "run",
        ),
        "repro.sim.systems": ("SystemSpec", "build", "names"),
    },
)
