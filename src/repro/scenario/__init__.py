"""Tenant-scale traffic scenarios: overload, shedding, elasticity.

The public surface of the scenario engine:

* :mod:`~repro.scenario.traffic` — tenant fleets and arrival patterns
* :mod:`~repro.scenario.slo` — per-tenant SLO targets and attainment
* :mod:`~repro.scenario.admission` — admission control and the
  graceful-degradation ladder
* :mod:`~repro.scenario.autoscaler` — elastic remote capacity over the
  health monitor's standby pool
* :mod:`~repro.scenario.engine` — the round loop that composes them
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.scenario.admission": (
            "AdmissionController",
            "AdmissionRejectedError",
            "LadderConfig",
            "LEVEL_DEGRADE",
            "LEVEL_NOMINAL",
            "LEVEL_REJECT",
            "LEVEL_THROTTLE",
        ),
        "repro.scenario.autoscaler": ("Autoscaler", "AutoscalerConfig"),
        "repro.scenario.engine": (
            "PRESETS",
            "ScenarioConfig",
            "preset",
            "run_scenario",
        ),
        "repro.scenario.slo": ("SloTarget", "SloTracker"),
        "repro.scenario.traffic": (
            "TenantSpec",
            "TIER_BEST_EFFORT",
            "TIER_GUARANTEED",
            "build_fleet",
            "intensity",
            "pattern_names",
            "register_pattern",
        ),
    },
)
