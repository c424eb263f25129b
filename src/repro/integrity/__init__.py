"""End-to-end data integrity: silent-corruption detection and repair.

The chaos framework models *loud* failures (drops, flaps, crashes);
this package models the *silent* ones — bit flips on RDMA payloads and
latent media errors in the pooled tier — and the machinery that keeps
them from reaching the application:

* :class:`SlotChecksums` — per-slot content-generation checksum ledger
  on every remote node (:mod:`repro.integrity.checksum`);
* :class:`IntegrityController` — the shared detect→repair→poison
  decision point and its counters (:mod:`repro.integrity.scrub`);
* :class:`PatrolScrubber` — background checksum audits riding the
  repair engine's rate limiter;
* :class:`PageCorruptError` — the typed all-copies-corrupt outcome,
  resolved by CXL-style poisoning plus zero-fill.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.integrity.checksum": ("PageCorruptError", "SlotChecksums"),
        "repro.integrity.config": ("ScrubConfig",),
        "repro.integrity.scrub": ("IntegrityController", "PatrolScrubber"),
    },
)
