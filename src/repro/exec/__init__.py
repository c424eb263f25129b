"""Execution engine: parallel sweep fan-out, persistent result cache,
and the per-component profiler.

The modules here own *how* simulations are executed — the simulator
itself (``repro.sim``) stays single-run and single-threaded.  A sweep is
a list of :class:`~repro.exec.spec.RunSpec` points handed to
:func:`~repro.exec.pool.execute`; every point is independent, re-seeded
from its own config, so serial and parallel execution produce
byte-identical RunResults (pinned by tests/test_exec_pool.py).
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.exec.spec": ("RunSpec",),
        "repro.exec.cache": (
            "ResultCache",
            "TraceCache",
            "cache_key",
            "default_cache_dir",
        ),
        "repro.exec.pool": ("execute", "run_spec"),
    },
)
