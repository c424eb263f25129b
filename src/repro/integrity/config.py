"""Patrol-scrubber configuration: a leaf module that imports no engine,
so run specs and the CLI can name a scrub setting without loading the
scrubber."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScrubConfig:
    """Patrol-scrubber shaping.

    ``rate_pages_per_s``  audited copies per simulated second; the
                          pump spaces audit reads ``1e6 / rate`` us
                          apart.  Higher rates shrink detection latency
                          and cost proportional READ bandwidth — the
                          trade-off ``bench_scrub_tradeoff.py`` sweeps.
    """

    rate_pages_per_s: float = 5000.0

    def __post_init__(self) -> None:
        if self.rate_pages_per_s <= 0:
            raise ValueError(
                f"rate_pages_per_s must be > 0, got {self.rate_pages_per_s}"
            )
