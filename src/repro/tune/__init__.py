"""Design-space autotuner: deterministic black-box search over the
HoPP configuration space (HPD geometry, STT, policy, placement, memory
tiers), riding the exec engine so every evaluation is cached, parallel,
and resumable.  See docs/architecture.md section 16.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.tune.objective": (
            "Constraint",
            "Objective",
            "ObjectiveError",
            "extract_metrics",
            "pareto_front",
        ),
        "repro.tune.report": (
            "best_config_report",
            "render_trajectory",
            "trajectory_rows",
            "write_report",
        ),
        "repro.tune.space": (
            "CatParam",
            "FloatParam",
            "IntParam",
            "SearchSpace",
            "SpaceError",
            "build_space",
            "default_config",
            "register_space",
            "space_names",
            "to_run_spec",
        ),
        "repro.tune.strategy": (
            "Evolutionary",
            "RandomSearch",
            "Strategy",
            "StrategyError",
            "SuccessiveHalving",
            "Trial",
            "TrialRequest",
            "build_strategy",
            "strategy_names",
        ),
        "repro.tune.tuner": ("FidelitySpec", "TuneError", "TuneResult", "Tuner"),
    },
)
