"""Table IV — Time and resource cost vs. number of hops.

The paper contrasts the traditional pipeline at two sampling fanouts
(nbr50, nbr10000 ≈ unsampled) against InferTurbo while growing the GNN
from 1 to 3 layers. Locally we use a proportionally scaled pair
(``nbr_small`` ≙ nbr50, ``nbr_large`` ≙ nbr10000: large enough that
sampling almost never truncates) and a row budget that plays the role of
the cluster's memory limit — the unsampled baseline must blow through it
at hop 3 ("OOM"), while InferTurbo's cost stays linear in hops.

Run: ``python jobs/table4_hops.py [n_nodes]``
"""
from __future__ import annotations

import sys
import tempfile

from _session import get_session, print_table, warm_up
from pyspark.sql import SparkSession

from repro.backends.common import checkpoint, release
from repro.backends.khop import KhopBudgetExceeded, infer_khop
from repro.backends.mapreduce import infer_mr
from repro.core.model import build_sage
from repro.graphs.generators import power_law_graph

CORES = 16

PAPER = {  # Table IV: minutes by hops 1/2/3
    "nbr50": {1: "23", 2: "160", 3: "3300+"},
    "nbr10000": {1: "181", 2: "780", 3: "OOM"},
    "ours": {1: "13", 2: "20", 3: "31"},
}


def run(
    spark: SparkSession,
    *,
    n_nodes: int = 4000,
    avg_degree: float = 15,
    feat_dim: int = 16,
    hidden: int = 16,
    nbr_small: int = 10,
    nbr_large: int = 100,
    row_budget: int = 6_000_000,
    seed: int = 0,
) -> list[dict]:
    nodes, edges = power_law_graph(
        spark,
        n_nodes=n_nodes,
        avg_degree=avg_degree,
        skew="both",
        alpha=1.05,
        feat_dim=feat_dim,
        seed=seed,
    )
    nodes, edges = checkpoint(nodes), checkpoint(edges)
    warm_up(spark, feat_dim=feat_dim, hidden=hidden)
    rows = []
    for hops in (1, 2, 3):
        model = build_sage(feat_dim, hidden, 4, n_layers=hops, seed=3)
        row = {"hops": hops}
        for label, fanout in ((f"nbr{nbr_small}", nbr_small), (f"nbr{nbr_large}", nbr_large)):
            try:
                _, st = infer_khop(
                    spark, nodes, edges, model, fanout=fanout, seed=1, row_budget=row_budget
                )
                row[f"{label} (s)"] = round(st.wall_s, 1)
                row[f"{label} cpu·min"] = round(st.cpu_min(CORES), 1)
                row[f"{label} rows"] = st.total_msg_rows
            except KhopBudgetExceeded as e:
                row[f"{label} (s)"] = "OOM"
                row[f"{label} cpu·min"] = "OOM"
                row[f"{label} rows"] = f">{e.budget}"
        # timed plain; the message counts come from a second, instrumented
        # run, whose counting jobs would otherwise land in the timing
        with tempfile.TemporaryDirectory() as tmp:
            _, st = infer_mr(spark, nodes, edges, model, workdir=tmp)
        with tempfile.TemporaryDirectory() as tmp:
            _, counted = infer_mr(spark, nodes, edges, model, workdir=tmp, instrument=True)
        row["ours (s)"] = round(st.wall_s, 1)
        row["ours cpu·min"] = round(st.cpu_min(CORES), 1)
        row["ours rows"] = counted.total_msg_rows
        row["paper (nbr50/nbr10000/ours min)"] = "/".join(
            PAPER[k][hops] for k in ("nbr50", "nbr10000", "ours")
        )
        rows.append(row)
    release(nodes)
    release(edges)
    return rows


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    spark = get_session("table4")
    print_table("Table IV — cost vs hops (ours vs paper)", run(spark, n_nodes=n))
    spark.stop()
