"""The Pregel-like graph-processing backend — paper §IV-C1.

A superstep engine (:class:`Pregel`) in the "think-like-a-vertex" style.
Each logical worker ``pid = worker(id)`` holds its vertices' state **and
their out-adjacency** ("structure and feature information stored in one
place"). Between supersteps the engine keeps one *frame* with two
kinds of rows: vertex rows ``(id, pid, adj, h)`` and the message
rows ``(src, dst, pid, payload)`` those vertices sent, each kind's columns
null in the other kind's rows — except ``adj``, which a broadcast message
row fills, in place of a ``dst``, with its destinations on its worker.
On every row ``pid`` is the logical worker whose pass reads it next: a
vertex's own, a message's receiver. The engine does not build messages:
``send`` and ``compute`` return them, and the vertex program makes and
addresses them with :func:`repro.backends.kernel.send`.

A superstep is one Python pass per logical worker over its vertices plus
the messages addressed to them: ``compute`` applies the messages, then
sends the next superstep's messages from the new state — pre-reduced per
``(sender worker, dst)`` in the same pass when a combiner applies, so raw
per-edge messages never leave Python. One Spark exchange per superstep
groups the frame's rows by ``pid``. Only messages move between logical
workers; vertex rows cross the exchange too, once, into their own
worker's group, because a stored frame (checkpoint or Parquet) forgets
the partitioning the planner would need to skip it.

:func:`run_gnn` runs the engine's vertex program: one GAS layer per
superstep with the paper's combiner trick — the *aggregate* part of a
``partial=True`` layer runs sender-side — and the paper's broadcast: a
broadcastable layer sends its payload once per receiver worker, which
fans it out to its local destinations; the last superstep's pass applies
the prediction head. Both backends run it: :func:`infer_pregel` over
resident frames, and :func:`repro.backends.mapreduce.infer_mr` over
frames stored as Parquet between rounds.
"""
from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
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
    checkpoint,
    count_comm,
    planned,
    release,
    shipping,
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
FRAME_SCHEMA = StructType(VERTEX_SCHEMA.fields + kernel.MSG_SCHEMA.fields)
_ARROW_FRAME = to_arrow_schema(FRAME_SCHEMA)

# send(vertices) -> the messages they send, one logical worker's Arrow tables
SendFn = Callable[[pa.Table], pa.Table]
# compute(step, vertices, messages) -> the next frame (see frame()), or the
# rows of a last superstep's output schema
ComputeFn = Callable[[int, pa.Table, pa.Table], pa.Table]


def build_vertices(nodes: DataFrame, edges: DataFrame) -> DataFrame:
    """Partition the graph Pregel-style: each vertex row carries its id,
    logical worker, out-adjacency list, and state ``h`` (initialized from
    the node features). An edge from an id that no node has gives a row
    without ``h``, which :func:`kernel.send` refuses."""
    adj = edges.groupBy(F.col("src").alias("id")).agg(F.collect_list("dst").alias("adj"))
    return (
        nodes.select("id", F.col("feat").alias("h"))
        .join(adj, "id", "full")
        .select(
            "id",
            worker_of(F.col("id")).alias("pid"),
            F.coalesce("adj", F.array().cast(ArrayType(LongType()))).alias("adj"),
            "h",
        )
    )


# -- the frame, on the Python side ----------------------------------------------


def frame(verts: pa.Table, msgs: pa.Table | None = None) -> pa.Table:
    """Vertex rows and the message rows they send, stacked as one frame."""

    def rows(tbl: pa.Table) -> pa.Table:
        cols = [
            tbl[f.name].cast(f.type)
            if f.name in tbl.column_names
            else pa.nulls(tbl.num_rows, f.type)
            for f in _ARROW_FRAME
        ]
        return pa.table(cols, schema=_ARROW_FRAME)

    parts = [rows(verts)]
    if msgs is not None:
        parts.append(rows(msgs))
    return pa.concat_tables(parts)


def _split(tbl: pa.Table) -> tuple[pa.Table, pa.Table]:
    """A frame group's vertex rows and message rows, the latter with the
    ``adj`` a broadcast message carries."""
    is_vertex = pc.is_valid(tbl["id"])
    return (
        tbl.filter(is_vertex).select(VERTEX_SCHEMA.names),
        tbl.filter(pc.invert(is_vertex)).select(kernel.MSG_SCHEMA.names + ["adj"]),
    )


# -- the engine --------------------------------------------------------------------


class Pregel:
    """Superstep driver over one frame of vertex and message rows
    (:data:`FRAME_SCHEMA`).

    Loading groups the vertices by logical worker ``pid`` and lets each
    worker ``send`` the first superstep's messages. Each
    :meth:`superstep` is one exchange grouping the frame's rows by
    ``pid`` and one ``compute`` pass per group, which returns the next
    frame: its updated vertices plus the messages they send, each
    message's ``pid`` its receiver's.
    Resident, the load and each superstep run as one Spark job, with one
    Python task per core (:func:`~repro.backends.common.planned`).

    Where a frame lives between supersteps is the one choice the two
    backends make differently: resident in executor memory (a local
    checkpoint, released when replaced), or, given ``rundir``, written to
    ``rundir/state_k.parquet`` after k supersteps and read back, nothing
    cached and nothing released.
    """

    def __init__(self, vertices: DataFrame, send: SendFn, rundir: Path | None = None):
        """``vertices`` are :data:`VERTEX_SCHEMA` rows with ``pid = worker(id)``,
        as :func:`build_vertices` makes them."""
        self.rundir = rundir
        self.frame = self._keep(
            0, vertices.groupBy("pid").applyInArrow(lambda v: frame(v, send(v)), FRAME_SCHEMA)
        )

    def _keep(self, k: int, df: DataFrame) -> DataFrame:
        """``df`` stored as state ``k`` where frames live, and read back.

        A resident frame is checkpointed as one Spark job
        (:func:`checkpoint`). The Parquet write is planned under the
        session's own settings, adaptive execution included: under
        :func:`~repro.backends.common.planned` a ``mr-gat-hubs`` run's
        writes took 3 jobs instead of 6 but 24 tasks instead of 13, as
        adaptive execution coalesces these small passes below one task
        per core; their Python time rose from 0.78 to 1.48 s and their
        driver time did not fall.
        """
        if self.rundir is None:
            return checkpoint(df)
        path = str(self.rundir / f"state_{k}.parquet")
        df.write.parquet(path)
        return df.sparkSession.read.schema(df.schema).parquet(path)

    def _drop(self, frame: DataFrame) -> None:
        """Release a resident frame's blocks; a stored frame stays."""
        if self.rundir is None:
            release(frame)

    def superstep(
        self, step: int, compute: ComputeFn, *, schema: StructType = FRAME_SCHEMA
    ) -> DataFrame:
        """Deliver the frame's messages and run ``compute`` once per logical
        worker ``pid`` over its vertices and the messages to them.

        The new frame is stored and returned. A last superstep passes
        the ``schema`` of its own output instead, and the frame stays:
        resident, that output is returned unmaterialized for the caller to
        materialize; under ``rundir`` it is stored as the next state,
        ``rundir/state_{step+1}.parquet``, and read back.
        """
        out = self.frame.groupBy("pid").applyInArrow(lambda t: compute(step, *_split(t)), schema)
        if schema != FRAME_SCHEMA:
            return out if self.rundir is None else self._keep(step + 1, out)
        old = self.frame
        self.frame = self._keep(step + 1, out)
        self._drop(old)
        return self.frame

    def stop(self) -> None:
        self._drop(self.frame)


# -- GNN inference on the Pregel engine ---------------------------------------


def run_gnn(
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    strategies: StrategyConfig,
    stats: RunStats,
    *,
    instrument: bool,
    rundir: Path | None = None,
) -> tuple[Pregel, DataFrame]:
    """Run a GNN as a vertex program on the engine — the one GAS data path
    of both backends — and return the engine (frames stored under
    ``rundir`` if given) and the last superstep's output, each node's
    ``(id, logits, pred, h)``; the caller stops the engine once it is read.

    Loading sends layer 0's messages. Superstep k applies layer k to its
    messages (:func:`kernel.update`) and sends layer k+1's
    (:func:`kernel.send`), both shaped as :func:`shipping` rules for that
    layer: a ``partial`` layer under partial gather has them combined per
    ``(worker(src), dst)`` in that pass; a broadcastable layer under
    broadcast sends one per ``(src, worker(dst))``, which the receiving
    pass fans out; any other layer one per edge. The last superstep sends
    nothing and applies the prediction head to the final vertex rows in
    the same pass. Under shadow nodes the vertex rows, held in memory
    until the load is stored, split hubs into mirrors as decided from
    them, and the last layer drops the mirrors again; with
    ``instrument``, ``stats`` gets each layer's traffic as
    :func:`count_comm` accounts it from the vertex rows' edges, plus the
    destination ids a broadcast layer's rows carry. A failed superstep
    stops the engine.
    """
    verts, floor = build_vertices(nodes, edges), None
    layers = model.layers
    pg, bc = strategies.partial_gather, strategies.broadcast
    ships = [shipping(layer, partial_gather=pg, broadcast=bc) for layer in layers]

    def send(k: int, verts: pa.Table) -> pa.Table:
        return kernel.send(layers[k], ships[k], verts)

    def compute(k: int, verts: pa.Table, msgs: pa.Table) -> pa.Table:
        verts = kernel.update(layers[k], ships[k], verts, msgs)
        if k + 1 < len(layers):
            return frame(verts, send(k + 1, verts))
        if floor is not None:
            verts = verts.filter(pc.less(verts["id"], floor))
        # update sorts the rows by id, as head does, so h lines up with them
        return kernel.head(model, verts).append_column("h", verts["h"])

    held = checkpoint(verts) if strategies.shadow_nodes else None
    try:
        if held is not None:
            verts, _, floor, _ = shadow.apply_shadow_nodes(held)
        if instrument:
            sent = verts.select(F.col("id").alias("src"), F.explode("adj").alias("dst"))
            for k, layer in enumerate(layers):
                rows, floats = count_comm(sent, layer, partial_gather=pg, broadcast=bc)
                ids = sent.count() if ships[k] == "broadcast" else 0
                stats.rounds.append(RoundStats(k, msg_rows=rows, msg_floats=floats, id_rows=ids))
        eng = Pregel(verts, partial(send, 0), rundir)
    finally:
        if held is not None:
            release(held)
    state = StructType(kernel.head_schema(model.task).fields + [VERTEX_SCHEMA["h"]])
    try:
        for k in range(len(layers)):
            out = eng.superstep(k, compute, schema=state if k + 1 == len(layers) else FRAME_SCHEMA)
    except BaseException:
        eng.stop()
        raise
    return eng, out


def infer_pregel(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    *,
    strategies: StrategyConfig = StrategyConfig.none(),
    instrument: bool = False,
) -> tuple[DataFrame, RunStats]:
    """Full-graph GNN inference on the Pregel backend: :func:`run_gnn`
    with resident frames, the last superstep's output collected.
    ``result`` has columns ``(id, logits, pred)`` for every node."""
    stats = RunStats(backend="pregel")
    head = kernel.head_schema(model.task)
    with Timer() as t:
        eng, out = run_gnn(nodes, edges, model, strategies, stats, instrument=instrument)
        try:
            with planned(spark):
                pdf = out.select(head.names).toPandas()
        finally:
            eng.stop()
        result = spark.createDataFrame(pdf, head)
    stats.wall_s = t.wall_s
    return result, stats
