"""The Pregel-like graph-processing backend — paper §IV-C1.

A generic superstep engine (:class:`Pregel`) in the "think-like-a-vertex"
style: the graph is hash-partitioned by node id; each partition holds its
vertices' state **and their out-adjacency** ("structure and feature
information stored in one place"); between supersteps only messages move,
optionally pre-reduced by a sender-side *combiner*. Vertex state stays
persisted and co-partitioned across supersteps — the property that makes
this backend faster but more memory-hungry than the MapReduce one.

The engine is validated on classic vertex programs (PageRank, SSSP — see
tests) before carrying GNNs; :func:`infer_pregel` then runs one GAS layer
per superstep, with the paper's combiner trick: the *aggregate* part of a
``partial=True`` layer runs in the combiner.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.backends import kernel
from repro.backends.common import (
    RoundStats,
    RunStats,
    Timer,
    apply_head,
    combine_messages,
    count_comm,
    worker_of,
)
from repro.core.model import GNNModel
from repro.graphs import shadow
from repro.strategies import StrategyConfig

VERTEX_SCHEMA = StructType(
    [
        StructField("id", LongType()),
        StructField("pid", LongType()),
        StructField("adj", ArrayType(LongType())),
        StructField("h", ArrayType(DoubleType())),
    ]
)

# compute(step, vertices, messages) -> vertices with a new `h`, one
# partition's Arrow tables in and out
ComputeFn = Callable[[int, pa.Table, pa.Table], pa.Table]


def build_vertices(
    spark: SparkSession, nodes: DataFrame, edges: DataFrame, *, state_col: str = "feat"
) -> DataFrame:
    """Partition the graph Pregel-style: each vertex row carries its id,
    partition, out-adjacency list, and state ``h`` (initialized from a
    node column)."""
    adj = edges.groupBy(F.col("src").alias("id")).agg(F.collect_list("dst").alias("adj"))
    return (
        nodes.select("id", F.col(state_col).alias("h"))
        .join(adj, "id", "left")
        .select(
            "id",
            worker_of(F.col("id")).alias("pid"),
            F.coalesce("adj", F.array().cast(ArrayType(LongType()))).alias("adj"),
            "h",
        )
    )


def _checkpoint(df: DataFrame) -> DataFrame:
    """``df`` materialized in executor memory with its lineage cut.

    localCheckpoint keeps the partitioned state resident (the Pregel
    property) AND truncates plan lineage — without it, iterative
    supersteps nest plans until the driver OOMs. Release with
    :func:`_release`, also when materializing fails."""
    cp = df.localCheckpoint(eager=False)
    try:
        _blocks(cp).count()  # one job, as an eager checkpoint runs
    except BaseException:
        _release(cp)
        raise
    return cp


def _blocks(cp: DataFrame):
    """The JVM RDD holding a local checkpoint's blocks."""
    return cp._jdf.queryExecution().analyzed().rdd()


def _release(cp: DataFrame) -> None:
    """Drop a :func:`_checkpoint` frame's blocks, which
    ``DataFrame.unpersist`` does not reach."""
    _blocks(cp).unpersist(False)


class Pregel:
    """Superstep driver over a partitioned vertex DataFrame."""

    def __init__(self, spark: SparkSession, vertices: DataFrame, *, n_partitions: int = 16):
        self.spark = spark
        self.n_partitions = n_partitions
        self.vertices = _checkpoint(vertices.repartition(n_partitions, "pid"))

    def scatter(self, vertices: DataFrame) -> DataFrame:
        """send_message over all out-edges: (src, dst, payload=h)."""
        return vertices.select(
            F.col("id").alias("src"), F.explode("adj").alias("dst"), F.col("h").alias("payload")
        )

    def superstep(
        self,
        step: int,
        messages: DataFrame,
        compute: ComputeFn,
        *,
        combiner: Callable[[DataFrame], DataFrame] | None = None,
    ) -> DataFrame:
        """Deliver messages, run compute() per partition, persist the new
        vertex frame; returns it (caller decides when to scatter next)."""
        if combiner is not None:
            messages = combiner(messages)
        delivered = messages.withColumn("pid", worker_of(F.col("dst")))
        old = self.vertices
        self.vertices = _checkpoint(
            old.groupBy("pid")
            .cogroup(delivered.groupBy("pid"))
            .applyInArrow(lambda verts, msgs: compute(step, verts, msgs), VERTEX_SCHEMA)
            .repartition(self.n_partitions, "pid")
        )
        _release(old)  # the previous superstep's blocks
        return self.vertices

    def stop(self) -> None:
        _release(self.vertices)


# -- classic vertex programs (substrate validation) ---------------------------


def _incoming(verts: pa.Table, msgs: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """``verts`` sorted by id, and the row and scalar payload of each message."""
    verts = verts.take(kernel.order_by(verts, "id"))
    seg = kernel.rows(verts["id"].to_numpy(), msgs["dst"].to_numpy())
    return verts, seg, kernel.to_matrix(msgs["payload"], 1)[:, 0]


def pagerank(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    *,
    iterations: int = 10,
    damping: float = 0.85,
) -> DataFrame:
    """PageRank as a Pregel vertex program → (id, rank)."""
    n = nodes.count()
    verts = build_vertices(spark, nodes.select("id", F.lit(1.0 / n).alias("r")), edges, state_col="r")
    # state = (rank, share per out-edge); the first superstep has no
    # incoming messages, so seed rank 1/n and its share
    share = F.col("h") / F.greatest(F.size("adj"), F.lit(1))
    eng = Pregel(spark, verts.withColumn("h", F.array("h", share)))

    def compute(step: int, verts: pa.Table, msgs: pa.Table) -> pa.Table:
        verts, seg, share_in = _incoming(verts, msgs)
        incoming = np.zeros(verts.num_rows)
        np.add.at(incoming, seg, share_in)
        rank = (1 - damping) / n + damping * incoming
        deg = pc.list_value_length(verts["adj"]).to_numpy()
        return kernel.with_state(verts, np.column_stack([rank, rank / np.maximum(deg, 1)]))

    def combiner(msgs: DataFrame) -> DataFrame:
        return msgs.groupBy("dst").agg(
            F.array(F.sum(F.col("payload")[0])).alias("payload")
        ).withColumn("src", F.lit(-1)).select("src", "dst", "payload")

    try:
        for step in range(iterations):
            msgs = eng.vertices.select(
                F.col("id").alias("src"),
                F.explode("adj").alias("dst"),
                F.array(F.col("h")[1]).alias("payload"),
            )
            eng.superstep(step, msgs, compute, combiner=combiner)
        result = eng.vertices.select("id", F.col("h")[0].alias("rank")).toPandas()
    finally:
        eng.stop()
    return spark.createDataFrame(result)


def sssp(
    spark: SparkSession, nodes: DataFrame, edges: DataFrame, *, source: int, max_steps: int = 20
) -> DataFrame:
    """Unweighted single-source shortest paths (BFS) → (id, dist);
    unreachable nodes get dist = -1."""
    INF = 1e18
    verts = build_vertices(
        spark,
        nodes.select(
            "id",
            F.when(F.col("id") == source, F.array(F.lit(0.0)))
            .otherwise(F.array(F.lit(INF)))
            .alias("d"),
        ),
        edges,
        state_col="d",
    )
    eng = Pregel(spark, verts)

    def compute(step: int, verts: pa.Table, msgs: pa.Table) -> pa.Table:
        verts, seg, cand_in = _incoming(verts, msgs)
        dist = kernel.to_matrix(verts["h"], 1)[:, 0].copy()
        np.minimum.at(dist, seg, cand_in)
        return kernel.with_state(verts, dist[:, None])

    def combiner(msgs: DataFrame) -> DataFrame:
        return (
            msgs.groupBy("dst")
            .agg(F.array(F.min(F.col("payload")[0])).alias("payload"))
            .withColumn("src", F.lit(-1))
            .select("src", "dst", "payload")
        )

    try:
        for step in range(max_steps):
            msgs = eng.vertices.filter(F.col("h")[0] < INF).select(
                F.col("id").alias("src"),
                F.explode("adj").alias("dst"),
                F.array(F.col("h")[0] + 1).alias("payload"),
            )
            eng.superstep(step, msgs, compute, combiner=combiner)
        result = eng.vertices.select(
            "id",
            F.when(F.col("h")[0] >= INF, F.lit(-1.0)).otherwise(F.col("h")[0]).alias("dist"),
        ).toPandas()
    finally:
        eng.stop()
    return spark.createDataFrame(result)


# -- GNN inference on the Pregel engine ---------------------------------------


def infer_pregel(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    *,
    strategies: StrategyConfig = StrategyConfig.none(),
    n_workers: int = 16,
    instrument: bool = False,
) -> tuple[DataFrame, RunStats]:
    """Full-graph GNN inference, one GAS layer per superstep.

    Superstep k delivers layer k's messages, runs *gather → aggregate →
    apply_node* (:func:`kernel.update`) per partition, and scatters layer
    k+1's messages via the out-adjacency each vertex holds. The combiner
    performs the *aggregate* stage sender-side when the layer allows it
    (``partial=True`` + partial_gather strategy).
    """
    stats = RunStats(backend="pregel")
    with Timer() as t:
        if strategies.shadow_nodes:
            thr = shadow.shadow_threshold(edges.count(), n_workers, strategies.shadow_lambda)
            nodes, edges, _ = shadow.apply_shadow_nodes(nodes, edges, threshold=thr)
        eng = Pregel(spark, build_vertices(spark, nodes, edges), n_partitions=n_workers)
        try:
            for k, layer in enumerate(model.layers):
                msgs = eng.scatter(eng.vertices)
                if instrument:
                    rows, floats = count_comm(
                        msgs,
                        layer,
                        partial_gather=strategies.partial_gather,
                        broadcast=strategies.broadcast,
                    )
                    stats.rounds.append(RoundStats(layer=k, msg_rows=rows, msg_floats=floats))
                combined = strategies.partial_gather and layer.partial

                def compute(step, verts, msgs, layer=layer, combined=combined):
                    return kernel.update(layer, verts, msgs, combined=combined)

                combiner = partial(combine_messages, layer=layer) if combined else None
                eng.superstep(k, msgs, compute, combiner=combiner)

            result = apply_head(eng.vertices.select("id", "h"), model)
            if strategies.shadow_nodes:
                result = shadow.drop_mirrors(result)
            pdf = result.toPandas()
        finally:
            eng.stop()
        result = spark.createDataFrame(pdf)
    stats.wall_s = t.wall_s
    return result, stats
