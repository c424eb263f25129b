"""Figure 14 — prefetch coverage on the Spark workloads.

Paper shapes: HoPP's Spark coverage is lower than on the apps without
JVM ("the repetitive patterns might stop before HoPP finishes
identifying them") but still ~29% above Fastswap's on average, and the
HoPP bar keeps a visible swapcache-hit share (the fault-path prefetches
it runs on top of).
"""

import pytest

from repro.analysis.report import print_artifact, render_table
from repro.common.stats import safe_ratio
from repro.workloads import SPARK_APPS

from common import get_result, paper_fraction, time_one


@pytest.mark.benchmark(group="fig14")
def test_fig14_coverage_spark(benchmark):
    time_one(
        benchmark,
        lambda: get_result("spark-bayes", "hopp", paper_fraction("spark-bayes")),
    )

    rows, fast_values, hopp_values = [], [], []
    for app in SPARK_APPS:
        fraction = paper_fraction(app)
        fast = get_result(app, "fastswap", fraction)
        hopp = get_result(app, "hopp", fraction)
        denominator = hopp.remote_demand_reads + hopp.prefetch_hits
        swapcache_part = safe_ratio(
            hopp.prefetch_hit_swapcache + hopp.prefetch_hit_inflight, denominator
        )
        dram_part = safe_ratio(hopp.prefetch_hit_dram, denominator)
        fast_values.append(fast.coverage)
        hopp_values.append(hopp.coverage)
        rows.append([app, fast.coverage, hopp.coverage, swapcache_part, dram_part])
    rows.append(
        ["average", sum(fast_values) / len(fast_values),
         sum(hopp_values) / len(hopp_values), "", ""]
    )
    print_artifact(
        "Figure 14: prefetch coverage, Spark workloads",
        render_table(
            ["workload", "fastswap", "hopp", "hopp:swapcache", "hopp:dram-hit"],
            rows,
        ),
    )

    assert sum(hopp_values) > sum(fast_values)
    # JVM coverage trails the non-JVM suite (checked against Figure 11's
    # cached results when both benches run in one session).
    from common import _MEMO

    nojvm = [
        result.coverage
        for (name, system, _), result in _MEMO.items()
        if system == "hopp" and name in ("omp-kmeans", "quicksort")
    ]
    if nojvm:
        assert sum(hopp_values) / len(hopp_values) < max(nojvm)
