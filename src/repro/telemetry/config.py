"""Telemetry configuration: a leaf module that imports no engine, so run
specs and the CLI can name a telemetry setting without loading the event
bus, the time-series engine or the exporters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record.  Frozen: it participates in the exec-cache key
    (``RunSpec.key_dict``), so it must be hashable and immutable."""

    #: Fixed simulated-time window width for the time-series engine.
    epoch_us: float = 1000.0
    #: Record the Chrome trace timeline (memory-bounded by trace_limit).
    trace: bool = False
    #: Hard cap on stored trace events; past it they are counted, not kept.
    trace_limit: int = 200_000

    def __post_init__(self) -> None:
        if self.epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        if self.trace_limit <= 0:
            raise ValueError("trace_limit must be positive")
