"""``core.*`` timings: the public NumPy stage functions of :mod:`repro.core`
on arrays shaped like one gather bucket of a workload.

A bucket holds ``nodes`` destination rows and ``msgs`` message rows
(the backends' ``applyInPandas`` group: one Pregel partition, or one of
the MapReduce backend's 64 hash buckets). Each kernel is called
repeatedly for a fixed time and reports its median call time in ms.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

KERNELS = (
    "sage_apply_node",
    "mean_lift_segments",
    "mean_merge_segments",
    "mean_finalize",
    "gat_apply_node_union",
)


def _median_ms(fn, budget_s: float) -> float:
    times = []
    end = time.perf_counter() + budget_s
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def kernel_timings(
    *, nodes: int, msgs: int, dim: int, seed: int, budget_s: float = 0.3
) -> dict[str, float]:
    from repro.core.gas import MeanAgg
    from repro.core.gat import GATConv
    from repro.core.sage import SAGEConv

    rng = np.random.default_rng(seed)
    h = rng.standard_normal((nodes, dim))
    m = rng.standard_normal((msgs, dim))
    seg = np.sort(rng.integers(0, nodes, msgs))
    agg = MeanAgg(dim)
    partials = agg.lift_segments(m, seg, nodes)
    sender_partials = partials[seg]  # one partial per message row, as after a combiner
    sage = SAGEConv(dim, dim, rng=rng)
    gat = GATConv(dim, dim, heads=2, rng=rng)
    fns = {
        "sage_apply_node": lambda: sage.apply_node(h, partials[:, :-1]),
        "mean_lift_segments": lambda: agg.lift_segments(m, seg, nodes),
        "mean_merge_segments": lambda: agg.merge_segments(sender_partials, seg, nodes),
        "mean_finalize": lambda: agg.finalize(partials),
        "gat_apply_node_union": lambda: gat.apply_node_union(h, m, seg),
    }
    return {f"core.{k}_ms": _median_ms(fns[k], budget_s) for k in KERNELS}
