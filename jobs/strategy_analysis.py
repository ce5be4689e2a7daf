"""§V-B2 strategy analysis — the numeric claims quoted in the text.

The paper's figures 9–13 are plots, but the prose quotes concrete
numbers which we reproduce as a table:

* partial-gather cuts total communication ≈25% and tail-worker (busiest
  10%) input ≈73% on an in-degree-skewed graph;
* broadcast cuts tail-worker output ≈42% and shadow-nodes ≈53% on an
  out-degree-skewed graph; both shrink the across-worker variance.

All quantities are *exact message/byte counts per logical worker*
computed from the message tables — no timing noise.

Run: ``python jobs/strategy_analysis.py [n_nodes]``
"""
from __future__ import annotations

import sys

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.backends.common import N_WORKERS, worker_of
from repro.backends.pregel import build_vertices
from repro.graphs.generators import power_law_graph
from repro.graphs.shadow import apply_shadow_nodes


def _per_worker(df: DataFrame, key_col, weight: int) -> np.ndarray:
    """Bytes handled per logical worker (payload floats × 8)."""
    pdf = (
        df.groupBy(worker_of(F.col(key_col)).alias("w"))
        .agg(F.count("*").alias("rows"))
        .toPandas()
    )
    out = np.zeros(N_WORKERS)
    out[pdf["w"].to_numpy()] = pdf["rows"].to_numpy() * weight
    return out


def _tail_reduction(base: np.ndarray, opt: np.ndarray, frac: float = 0.1) -> float:
    """Relative reduction on the busiest ``frac`` of workers."""
    k = max(1, int(len(base) * frac))
    worst = np.argsort(base)[-k:]
    return float(1 - opt[worst].sum() / base[worst].sum())


def run(spark: SparkSession, *, n_nodes: int = 20_000, avg_degree: float = 14) -> list[dict]:
    dim = 16
    rows = []

    # -- large in-degree: partial-gather ---------------------------------
    _, edges = power_law_graph(
        spark, n_nodes=n_nodes, avg_degree=avg_degree, skew="in", alpha=1.35,
        feat_dim=dim, seed=31,
    )
    # one message per edge, each carrying a dim-wide payload
    base_in = _per_worker(edges, "dst", dim * 8 + 16)
    combined = edges.select(worker_of(F.col("src")).alias("w"), "dst").distinct()
    pg_in = _per_worker(combined, "dst", (dim + 1) * 8 + 16)  # mean partial carries count
    rows.append(
        {
            "strategy": "partial-gather (in-skew)",
            "total reduction": f"{1 - pg_in.sum() / base_in.sum():.0%}",
            "tail-10% reduction": f"{_tail_reduction(base_in, pg_in):.0%}",
            "worker variance ratio": round(float(np.var(pg_in) / np.var(base_in)), 3),
            "paper": "≈25% total, ≈73% tail",
        }
    )

    # -- large out-degree: broadcast and shadow-nodes ---------------------
    nodes, edges = power_law_graph(
        spark, n_nodes=n_nodes, avg_degree=avg_degree, skew="out", alpha=1.35,
        feat_dim=dim, seed=32,
    )
    base_out = _per_worker(edges, "src", dim * 8 + 16)

    # broadcast ships the payload once per (src, receiver-worker) plus the
    # destination ids those rows carry (16 B/edge)
    bcast = edges.select("src", worker_of(F.col("dst")).alias("wd")).distinct()
    bc_out = _per_worker(bcast, "src", dim * 8 + 16) + _per_worker(edges, "src", 16)
    rows.append(
        {
            "strategy": "broadcast (out-skew)",
            "total reduction": f"{1 - bc_out.sum() / base_out.sum():.0%}",
            "tail-10% reduction": f"{_tail_reduction(base_out, bc_out):.0%}",
            "worker variance ratio": round(float(np.var(bc_out) / np.var(base_out)), 3),
            "paper": "≈42% tail",
        }
    )

    # the (src, dst) stream the rewritten vertex rows send, mirror copies
    # of hub in-edges included
    verts, n_hubs, _, thr = apply_shadow_nodes(build_vertices(nodes, edges))
    sent = verts.select(F.col("id").alias("src"), F.explode("adj").alias("dst"))
    sn_out = _per_worker(sent, "src", dim * 8 + 16)
    rows.append(
        {
            "strategy": f"shadow-nodes (out-skew, {n_hubs} hubs, thr={thr})",
            "total reduction": f"{1 - sn_out.sum() / base_out.sum():.0%}",
            "tail-10% reduction": f"{_tail_reduction(base_out, sn_out):.0%}",
            "worker variance ratio": round(float(np.var(sn_out) / np.var(base_out)), 3),
            "paper": "≈53% tail",
        }
    )
    return rows


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
    from _session import get_session, print_table

    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    spark = get_session("strategies")
    print_table("§V-B2 — strategy IO analysis (ours vs paper)", run(spark, n_nodes=n))
    spark.stop()
