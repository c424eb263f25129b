"""Telemetry subsystem: event-bus probes, windowed time-series, and
trace-timeline export.

Disabled (the default) it is a null-object: ``MachineConfig.telemetry``
is ``None``, no bus exists, every probe site in the simulator is a
single ``is not None`` check on the cold path, and run output is
byte-identical to the pinned goldens.  Enabled, a :class:`Telemetry`
facade owns one :class:`~repro.telemetry.events.EventBus` wired to a
:class:`~repro.telemetry.timeseries.TimeSeriesEngine` (always) and a
:class:`~repro.telemetry.exporters.TraceRecorder` (when
``TelemetryConfig.trace``), and :meth:`Telemetry.export` folds the
whole thing into the plain-JSON dict that rides on
``RunResult.telemetry``.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.telemetry.config": ("TelemetryConfig",),
        "repro.telemetry.events": ("EventBus", "Probe"),
        "repro.telemetry.exporters": (
            "TraceRecorder",
            "chrome_trace",
            "prometheus_snapshot",
        ),
        "repro.telemetry.facade": ("Telemetry",),
        "repro.telemetry.timeseries": ("TimeSeriesEngine",),
    },
)
