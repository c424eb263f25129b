"""RDMA fabric and remote memory node models."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.net.rdma": ("FabricConfig", "RdmaFabric"),
        "repro.net.remote": ("RemoteMemoryNode", "RemoteReadError"),
    },
)
