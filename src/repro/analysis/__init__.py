"""Offline trace analysis and report formatting."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.offline": ("OfflineStudy", "replay_study"),
        "repro.analysis.patterns": (
            "PatternBreakdown",
            "analyze_trace",
            "classify_window",
            "page_sequence",
        ),
        "repro.analysis.report": ("print_artifact", "render_series", "render_table"),
        "repro.analysis.sweeps": ("SweepPoint", "SweepResult", "sweep"),
    },
)
