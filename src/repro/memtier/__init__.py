"""Memory tiers: local DRAM, a pooled CXL-class tier, and the RDMA far
tier — with hotness-driven inter-tier page migration.

Vocabulary note (the repo has two unrelated "tier" concepts):

* **Prefetch tiers** — the HoPP three-tier *prefetch cascade* SSP/LSP/
  RSP in :mod:`repro.hopp.three_tier`, which decides *how far ahead* to
  prefetch.  ``issued_by_tier`` / ``hits_by_tier`` and the fig-18/19/20
  benches use "tier" in that sense.
* **Memory tiers** — this package: *where a page physically lives*.
  Three levels, ordered by latency: local DRAM (the compute node's own
  memory), the pooled CXL tier (``"pool"`` nodes, ~3-10x DRAM latency),
  and the RDMA far tier (``"far"`` nodes, the classic disaggregated
  pool).  Everything here is prefixed ``memtier_`` — event kinds,
  time-series, Prometheus families, counters — so the two vocabularies
  can never collide in exported data.

The model layers onto the existing cluster rather than replacing it: a
memory tier is a *label on a cluster node*.  ``"pool"`` nodes sit
behind a CXL-class link (latency/bandwidth derived from the far link by
the NUMA-emulation ratio methodology — see
:meth:`~repro.memtier.tiers.MemtierConfig.cxl_fabric_config`) and
``"far"`` nodes keep the RDMA link.  The slot directory, replication,
failover, repair, and page-conservation machinery all apply unchanged;
migration is one more modeled bulk transfer
(:class:`~repro.memtier.engine.MigrationEngine`), and conservation
gains a fifth term: ``written == stored + overwritten + released +
lost + migrated_out`` per node.

With ``MachineConfig.memtier`` unset (the default) nothing in this
package is constructed and every run is byte-identical to the untiered
simulator (pinned against ``tests/data/goldens_v1.json``).
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.memtier.tiers": (
            "MemtierConfig",
            "TIER_POOL",
            "TIER_FAR",
            "derive_node_tiers",
        ),
        "repro.memtier.engine": ("MigrationEngine",),
    },
)
