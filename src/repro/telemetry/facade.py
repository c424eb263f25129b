"""The per-run :class:`Telemetry` facade: one event bus, its consumers,
and the export step that folds them into ``RunResult.telemetry``."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventBus
from repro.telemetry.exporters import TraceRecorder
from repro.telemetry.timeseries import TimeSeriesEngine


class Telemetry:
    """Per-run facade: one bus, its consumers, and the export step."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.bus = EventBus()
        self.timeseries = TimeSeriesEngine(self.config.epoch_us)
        self.bus.subscribe(self.timeseries.on_event)
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(self.bus, self.config.trace_limit)
            if self.config.trace
            else None
        )

    def export(
        self,
        end_us: float,
        node_metrics: Optional[List[Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """The JSON-serializable blob stored on ``RunResult.telemetry``.

        ``node_metrics`` is the per-node list of unified
        ``metrics_snapshot()`` dicts captured at collect time so the
        Prometheus exporter can run on a deserialized result."""
        out: Dict[str, object] = {
            "config": {
                "epoch_us": self.config.epoch_us,
                "trace": self.config.trace,
                "trace_limit": self.config.trace_limit,
            },
            "events_total": self.bus.events_emitted,
            "timeseries": self.timeseries.export(end_us),
        }
        if node_metrics is not None:
            out["node_metrics"] = list(node_metrics)
        if self.recorder is not None:
            out["trace_events"] = list(self.recorder.events)
            out["trace_truncated"] = self.recorder.truncated
            out["trace_dropped"] = self.recorder.dropped
        return out
