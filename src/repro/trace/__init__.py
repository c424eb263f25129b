"""HMTT-style full memory trace capture (Section V emulation)."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.trace.hmtt": ("HmttTracer", "TraceRing", "replay"),
        "repro.trace.persist": (
            "TraceFormatError",
            "load_trace",
            "read_trace",
            "write_trace",
        ),
    },
)
