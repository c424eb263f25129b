"""HoPP core: hardware modules (HPD, RPT) and the software stack
(training framework, policy engine, execution engine)."""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.hopp.eviction": ("StreamAwareEvictionAdvisor",),
        "repro.hopp.executor": ("ExecutionEngine", "PrefetchRecord"),
        "repro.hopp.hugepage": ("HugePageBatcher",),
        "repro.hopp.learned": ("LearnedStridePredictor", "LearnedTrainer"),
        "repro.hopp.prototype": ("PrototypeDataPlane",),
        "repro.hopp.hardware_model": ("SramEstimate", "SramModel"),
        "repro.hopp.hpd": ("HotPageDetector", "MultiChannelHpd"),
        "repro.hopp.policy": ("PolicyConfig", "PolicyEngine"),
        "repro.hopp.rpt": (
            "ReversePageTable",
            "RptCache",
            "RptMaintainer",
            "rpt_bandwidth_overhead",
        ),
        "repro.hopp.stt": ("StreamTrainingTable",),
        "repro.hopp.system": ("HoppConfig", "HoppDataPlane"),
        "repro.hopp.three_tier": ("ThreeTierTrainer", "TierConfig"),
    },
)
