"""Traditional training-style inference pipeline — the paper's baseline.

This reproduces what PyG/DGL-style systems do at inference time (paper
§I, §V): for every target node, build its (sampled) k-hop in-neighborhood
by iterative frontier expansion, then run a localized forward pass of the
full k-layer GNN on that little subgraph, one Arrow pass per target
through the bucket kernel both InferTurbo backends use (its canonical
orders and dst → row mapping, and its prediction head). Two defining
pathologies are faithfully present:

* **Redundant computation** — overlapping neighborhoods of different
  targets are each processed independently; the total row count grows
  like ``Σ fanout^k`` per target rather than ``k·|E|`` total.
* **Stochastic predictions** — when a node has more than ``fanout``
  in-neighbors, a per-``seed`` deterministic sample is taken, so
  different run seeds can flip predictions (the paper's Fig. 7
  consistency experiment).

``row_budget`` bounds the materialized neighborhood size; exceeding it
raises :class:`KhopBudgetExceeded`, which the Table IV harness reports as
the paper's OOM cell.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.backends import kernel
from repro.backends.common import RoundStats, RunStats, Timer, checkpoint, release
from repro.core.model import GNNModel
from repro.nn.autodiff import Tensor


class KhopBudgetExceeded(RuntimeError):
    """The sampled neighborhoods outgrew the row budget (simulated OOM)."""

    def __init__(self, rows: int, budget: int):
        super().__init__(f"k-hop pipeline materialized {rows} rows > budget {budget}")
        self.rows = rows
        self.budget = budget


def sample_khop_edges(
    edges: DataFrame,
    targets: DataFrame,
    *,
    hops: int,
    fanout: int,
    seed: int,
    row_budget: int | None = None,
) -> tuple[DataFrame, int]:
    """Sampled k-hop in-neighborhood edges per target.

    Returns ``(sub_edges, total_rows)`` where ``sub_edges`` has columns
    ``(target, src, dst)`` — the union of sampled edges over all hops,
    duplicated per target (that duplication *is* the baseline's
    redundancy). Sampling keeps at most ``fanout`` in-edges per
    ``(target, parent)``, ranked by a seed-keyed hash, so one seed gives
    one deterministic sample and different seeds give different samples.
    ``sub_edges`` is a local checkpoint: the caller drops it with
    :func:`repro.backends.common.release`.
    """
    frontier = targets.select(F.col("id").alias("target"), F.col("id").alias("node"))
    parts: list[DataFrame] = []
    total_rows = 0
    for _ in range(hops):
        cand = frontier.join(edges, frontier.node == edges.dst).select(
            "target", "src", "dst"
        )
        rank = F.row_number().over(
            Window.partitionBy("target", "dst").orderBy(
                F.xxhash64(F.col("src"), F.col("dst"), F.col("target"), F.lit(seed))
            )
        )
        sampled = cand.withColumn("rk", rank).filter(F.col("rk") <= fanout).drop("rk")
        sampled = sampled.persist()
        hop_rows = sampled.count()
        total_rows += hop_rows
        if row_budget is not None and total_rows > row_budget:
            for p in parts:
                p.unpersist()
            sampled.unpersist()
            raise KhopBudgetExceeded(total_rows, row_budget)
        parts.append(sampled)
        frontier = sampled.select("target", F.col("src").alias("node")).distinct()
    sub = parts[0]
    for p in parts[1:]:
        sub = sub.unionByName(p)
    # materialize once, then release the per-hop caches so repeated
    # pipeline runs don't accumulate executor-memory blocks
    sub = checkpoint(sub.distinct())
    for p in parts:
        p.unpersist(blocking=False)
    return sub, total_rows


def infer_khop(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    *,
    fanout: int,
    seed: int = 0,
    targets: DataFrame | None = None,
    row_budget: int | None = None,
) -> tuple[DataFrame, RunStats]:
    """Baseline inference over all (or the given) target nodes.

    Returns ``(result, stats)``; ``result`` has ``(id, logits, pred)``
    like the InferTurbo backends, and ``stats.total_msg_rows`` is the
    materialized neighborhood rows (the baseline's communication+compute
    volume). An edge endpoint without a node row is a ``ValueError``.
    """
    stats = RunStats(backend=f"khop(fanout={fanout})")
    schema = kernel.head_schema(model.task)
    in_dim = model.layers[0].in_dim

    def localized(key: tuple, feats: pa.Table, sub: pa.Table) -> pa.Table:
        """Forward the k-layer GNN on one target's sampled subgraph, nodes
        sorted by id and edges by ``(dst, src)`` as the kernel reduces."""
        feats = feats.take(kernel.order_by(feats, "id"))
        sub = sub.take(kernel.order_by(sub, "dst", "src"))
        ids = feats["id"].to_numpy()
        src, dst = kernel.rows(ids, sub["src"].to_numpy()), kernel.rows(ids, sub["dst"].to_numpy())
        h = Tensor(kernel.to_matrix(feats["feat"], in_dim))
        for layer in model.layers:
            h = layer.forward(h, src, dst)
        pos = kernel.rows(ids, np.array([key[0].as_py()]))
        return kernel.head(model, pa.table({"id": ids[pos], "h": kernel.from_matrix(h.data[pos])}))

    with Timer() as t:
        if targets is None:
            targets = nodes.select("id")
        sub, rows = sample_khop_edges(
            edges, targets, hops=model.n_layers, fanout=fanout, seed=seed, row_budget=row_budget
        )
        try:
            # attach features of every node appearing in any subgraph
            members = (
                sub.select("target", F.col("src").alias("id"))
                .unionByName(sub.select("target", F.col("dst").alias("id")))
                .unionByName(targets.select(F.col("id").alias("target"), F.col("id")))
                .distinct()
            )
            feats = members.join(nodes.select("id", "feat"), "id")
            # rename the key on one side: both frames share lineage through
            # ``sub``, and Spark's ambiguous-self-join check rejects a cogroup
            # on two identically-named columns from the same plan subtree
            sub_renamed = sub.select(F.col("target").alias("tgt"), F.col("src"), F.col("dst"))
            pdf = (
                feats.groupBy("target")
                .cogroup(sub_renamed.groupBy("tgt"))
                .applyInArrow(localized, schema)
                .toPandas()
            )
        finally:
            release(sub)
        result = spark.createDataFrame(pdf, schema)
    stats.wall_s = t.wall_s
    stats.rounds = [RoundStats(layer=0, msg_rows=rows)]
    return result, stats
