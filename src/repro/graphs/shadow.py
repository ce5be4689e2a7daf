"""Shadow-nodes preprocessing (paper §IV-D-c).

A node whose out-degree exceeds a threshold is split into ``n`` mirrors.
Each mirror keeps **all** in-edges of the original (so every mirror
computes the identical state each layer) and an even 1/n share of the
out-edges (so the scatter-side communication load is spread over
machines). Mirror ids encode the group: mirror ``g >= 1`` of node
``id`` is ``id + g * SHADOW_BASE`` (``SHADOW_BASE = 2**40``); group 0 keeps
the original id, so downstream results are read off the original rows.

``shadow_threshold`` implements the paper's heuristic
``threshold = λ · total_edges / total_workers`` with λ = 0.1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

SHADOW_BASE = 1 << 40
DEFAULT_LAMBDA = 0.1


def shadow_threshold(n_edges: int, n_workers: int, lam: float = DEFAULT_LAMBDA) -> int:
    """The paper's heuristic hub threshold (at least 1)."""
    return max(1, int(lam * n_edges / n_workers))


def mirror_group(col):
    """Group index encoded in a (possibly mirrored) node id."""
    return (col / SHADOW_BASE).cast("long")


def original_id(col):
    """Original node id of a (possibly mirrored) node id."""
    return col % SHADOW_BASE


def apply_shadow_nodes(
    nodes: DataFrame, edges: DataFrame, *, threshold: int
) -> tuple[DataFrame, DataFrame, int]:
    """Rewrite ``(nodes, edges)`` splitting out-degree hubs into mirrors.

    Returns ``(nodes2, edges2, n_hubs)``. Result-preserving: inference on
    the rewritten graph followed by :func:`drop_mirrors` equals inference
    on the original graph (tested).
    """
    out_deg = edges.groupBy("src").agg(F.count("*").alias("outd"))
    hubs = out_deg.filter(F.col("outd") > threshold).withColumn(
        "n_groups", F.ceil(F.col("outd") / threshold).cast("long")
    )
    n_hubs = hubs.count()
    if n_hubs == 0:
        return nodes, edges, 0

    # split each hub's out-edges round-robin over its n_groups mirrors
    w = F.row_number().over(Window.partitionBy("src").orderBy("dst"))
    hub_out = (
        edges.join(hubs, "src")
        .withColumn("g", (w % F.col("n_groups")).cast("long"))
        .withColumn("src", F.col("src") + F.col("g") * SHADOW_BASE)
        .select("src", "dst")
    )
    plain_out = edges.join(hubs.select("src"), "src", "left_anti").select("src", "dst")

    # duplicate all in-edges of a hub to each mirror g >= 1
    groups = hubs.select(
        F.col("src").alias("hub"),
        F.explode(F.sequence(F.lit(1), F.col("n_groups") - 1)).alias("g"),
    )
    dup_in = (
        edges.join(groups, edges.dst == groups.hub)
        .select(F.col("src"), (F.col("dst") + F.col("g") * SHADOW_BASE).alias("dst"))
    )
    edges2 = plain_out.unionByName(hub_out).unionByName(dup_in)

    # mirror node rows copy the original's attributes under the mirror id
    feat_cols = [c for c in nodes.columns if c != "id"]
    mirrors = (
        nodes.join(groups, nodes.id == groups.hub)
        .select((F.col("id") + F.col("g") * SHADOW_BASE).alias("id"), *feat_cols)
    )
    nodes2 = nodes.unionByName(mirrors)
    return nodes2, edges2, n_hubs


def drop_mirrors(df: DataFrame, id_col: str = "id") -> DataFrame:
    """Keep only original-node rows of an inference result."""
    return df.filter(F.col(id_col) < SHADOW_BASE)
