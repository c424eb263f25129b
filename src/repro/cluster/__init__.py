"""Rack-scale remote-memory cluster: multi-node pool, placement,
failover, health monitoring, and background repair."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.cluster.cluster": (
            "ClusterConfig",
            "ClusterNode",
            "PageLostError",
            "RemoteMemoryCluster",
            "SlotDirectoryError",
        ),
        "repro.cluster.health": ("HealthConfig", "HealthMonitor", "NodeState"),
        "repro.cluster.placement": (
            "AffinityPlacement",
            "HashPlacement",
            "InterleavePlacement",
            "PlacementPolicy",
            "build_placement",
            "placement_names",
            "register_placement",
        ),
        "repro.cluster.repair": ("RepairConfig", "RepairEngine"),
    },
)
