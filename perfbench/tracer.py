"""Outside-in layer tracing: time the calls into each layer's public
functions by wrapping them from the benchmark's own files.

Wrappers are installed on the *class* or *module* attribute, never on an
instance, and before any machine is built.  Two things depend on that:

* ``batchkernel.supports_batch_taps`` compares the registered MC tap
  with ``plane.on_mc_access``; a bound method of an unwrapped function
  keeps that comparison true, so a traced run stays on the same replay
  engine as an untraced one.
* The kernel and the HoPP plane bind methods such as ``on_hot_page`` as
  locals at chunk start; with class-level wrappers those locals are the
  wrapped functions, so every call is seen.

Each wrapped function gets ``calls``, ``s`` (total host seconds) and
``self_s`` (total minus time spent in wrapped children).  Private
helpers (``Machine._major_fault`` and the like) are not wrapped, so
their cost stays in the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple

from repro.baselines.base import FaultTimePrefetcher
from repro.cluster.health import HealthMonitor
from repro.cluster.repair import RepairEngine
from repro.exec.cache import ResultCache
from repro.hopp.executor import ExecutionEngine
from repro.hopp.policy import PolicyEngine
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.system import HoppDataPlane
from repro.hopp.three_tier import ThreeTierTrainer
from repro.kernel.reclaim import Reclaimer
from repro.net.rdma import RdmaFabric
from repro.sim import runner
from repro.sim.machine import Machine
from repro.workloads.kmeans import OmpKmeans
from repro.workloads.kvstore import KvCache
from repro.workloads.quicksort import Quicksort


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


#: (span name, owner, attribute).  Several owners may share one span
#: name; their calls then add up under that name.
LAYER_FUNCTIONS: List[Tuple[str, object, str]] = [
    ("sim.make_machine", runner, "make_machine"),
    ("sim.replay", Machine, "run"),
    ("sim.flush", Machine, "flush_memtier"),
    ("sim.flush", Machine, "flush_recovery"),
    ("sim.collect", runner, "collect"),
    ("hopp.on_hot_page", HoppDataPlane, "on_hot_page"),
    ("hopp.stt_feed", StreamTrainingTable, "feed"),
    ("hopp.train", ThreeTierTrainer, "train"),
    ("hopp.finalize", PolicyEngine, "finalize"),
    ("hopp.submit", ExecutionEngine, "submit"),
    ("kernel.prefetch_page", Machine, "prefetch_page"),
    ("kernel.prefetch_batch", Machine, "prefetch_batch"),
    ("kernel.reclaim_plan", Reclaimer, "plan"),
    *[
        ("baselines.on_fault", cls, "on_fault")
        for cls in _subclasses(FaultTimePrefetcher)
        if "on_fault" in vars(cls)
    ],
    ("net.read_page", RdmaFabric, "read_page"),
    ("net.read_batch", RdmaFabric, "read_batch"),
    ("net.write_page", RdmaFabric, "write_page"),
    ("cluster.health_tick", HealthMonitor, "tick"),
    ("cluster.repair_pump", RepairEngine, "pump"),
    ("cluster.repair_flush", RepairEngine, "flush"),
    ("exec.cache_get", ResultCache, "get"),
    ("exec.cache_put", ResultCache, "put"),
]

#: Trace generators are generator functions: calling one does no work,
#: so their span materializes the stream inside the timed region.
TRACE_GENERATORS: List[Tuple[str, object, str]] = [
    ("workloads.trace_gen", cls, "trace") for cls in (OmpKmeans, KvCache, Quicksort)
]

#: Every span name, in report order.
SPAN_NAMES: List[str] = list(
    dict.fromkeys(name for name, _, _ in LAYER_FUNCTIONS + TRACE_GENERATORS)
)


class Tracer:
    """Per-span totals for one process.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  A stack of
    child-time accumulators gives self time: on exit, a span adds its
    duration to its parent's accumulator and subtracts its own
    children's from itself.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self._children: List[float] = []

    def _span(self, name: str, fn: Callable, materialize: bool) -> Callable:
        stats = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = iter(list(out))
                return out
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if children:
                    children[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every layer function in place (class/module level), for
        the rest of the process."""
        for table, materialize in ((LAYER_FUNCTIONS, False), (TRACE_GENERATORS, True)):
            for name, owner, attr in table:
                setattr(owner, attr, self._span(name, vars(owner)[attr], materialize))
