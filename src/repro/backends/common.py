"""Shared GAS data-flow machinery for the MapReduce and Pregel backends.

This module owns the Spark side of the abstraction — ``scatter_nbrs``
(send), the shuffles that gather messages into buckets, and the
logical-worker model with its communication instrumentation — while the
per-bucket work runs in :mod:`repro.backends.kernel`:

* **Logical workers.** The paper runs on ~1000 instances; locally we
  simulate placement with ``worker(id) = pmod(xxhash64(id), W)``
  (W = 16). Strategy semantics (combine per sender worker, broadcast per
  receiver worker) and all communication metrics are defined against
  these logical workers, so the measured message/byte reductions are
  exact and machine-independent.
* **Vectorized gather.** Messages are grouped by a destination bucket
  (not per node) and handed to the kernel as one Arrow table per bucket
  through ``applyInArrow`` — hundreds of destinations per Python call,
  reduced with NumPy segment ops.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.backends import kernel
from repro.core.gas import GASLayer
from repro.core.model import GNNModel

N_WORKERS = 16


def worker_of(col):
    """Logical worker (simulated machine) hosting a node id."""
    return F.pmod(F.xxhash64(col), F.lit(N_WORKERS))


@dataclass
class RoundStats:
    """Communication accounting for one layer/superstep."""

    layer: int
    msg_rows: int = 0  # rows crossing the gather shuffle
    msg_floats: int = 0  # payload doubles shipped (excl. 16B of ids/row)

    @property
    def msg_bytes(self) -> int:
        return self.msg_rows * 16 + self.msg_floats * 8


@dataclass
class RunStats:
    """Wall-clock + communication profile of one inference run."""

    backend: str
    wall_s: float = 0.0
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def total_msg_rows(self) -> int:
        return sum(r.msg_rows for r in self.rounds)

    @property
    def total_msg_bytes(self) -> int:
        return sum(r.msg_bytes for r in self.rounds)

    def cpu_min(self, cores: int = 16) -> float:
        """Paper-style resource accounting: the whole (simulated) cluster
        is held for the duration of the job."""
        return self.wall_s * cores / 60.0


# -- scatter_nbrs (data flow, send side) -------------------------------------


def scatter_messages(
    edges: DataFrame,
    state: DataFrame,
    layer: GASLayer,
    *,
    broadcast: bool,
) -> tuple[DataFrame, DataFrame | None]:
    """Produce the message table ``(src, dst, payload)`` for one layer.

    Plain path: one payload per edge (``edges ⋈ state on src``).

    Broadcast path (legal when the layer is ``broadcastable``): the
    payload travels once per ``(src, dst_worker)`` in a deduped
    *broadcast table*; receivers re-attach payloads to their edges by a
    worker-local join. Returns ``(messages, broadcast_table)`` — the
    second element is what actually crossed the network, ``None`` on the
    plain path.
    """
    # scatter()/apply_edge are identity for SAGE/GAT without edge feats,
    # so the payload is the node state itself.
    if broadcast and layer.broadcastable:
        pairs = edges.select("src", worker_of(F.col("dst")).alias("wdst")).distinct()
        bcast = pairs.join(state, pairs.src == state.id).select(
            "src", "wdst", F.col("h").alias("payload")
        )
        msgs = (
            edges.withColumn("wdst", worker_of(F.col("dst")))
            .join(bcast, ["src", "wdst"])
            .select("src", "dst", "payload")
        )
        return msgs, bcast
    msgs = edges.join(state, edges.src == state.id).select(
        "src", "dst", F.col("h").alias("payload")
    )
    return msgs, None


# -- gather_nbrs + aggregate + apply_node (receive side) ------------------------


def _bucket(col: str, n_buckets: int):
    """Deterministic bucket of an id: fixes which nodes share a batch."""
    return F.pmod(F.xxhash64(F.col(col)), F.lit(n_buckets))


def combine_messages(msgs: DataFrame, layer: GASLayer) -> DataFrame:
    """Partial gather: lift messages sender-side to one partial per
    ``(worker(src), dst)`` — the paper's combiner, legal for layers whose
    aggregate is commutative + associative (``partial=True``)."""
    agg = layer.aggregator
    return (
        msgs.withColumn("wsrc", worker_of(F.col("src")))
        .groupBy("wsrc")
        .applyInArrow(lambda tbl: kernel.combine(agg, tbl), kernel.MSG_SCHEMA)
    )


def apply_layer(
    state: DataFrame,
    msgs: DataFrame,
    layer: GASLayer,
    *,
    partial_gather: bool,
    n_buckets: int = 64,
) -> DataFrame:
    """Run gather → aggregate → apply_node for one layer → new state table.

    ``state``: ``(id, h)``; ``msgs``: ``(src, dst, payload)``. This is the
    reduce phase: each bucket of node states is cogrouped with the
    messages to its nodes — combined sender-side first under partial
    gather — and :func:`kernel.update` aggregates and applies in one pass.
    """
    combined = partial_gather and layer.partial
    if combined:
        msgs = combine_messages(msgs, layer)
    return (
        state.groupBy(_bucket("id", n_buckets))
        .cogroup(msgs.groupBy(_bucket("dst", n_buckets)))
        .applyInArrow(
            lambda verts, m: kernel.update(layer, verts, m, combined=combined),
            kernel.STATE_SCHEMA,
        )
    )


def apply_head(state: DataFrame, model: GNNModel, *, n_buckets: int = 64) -> DataFrame:
    """Attach the prediction slice to the final state (paper: the last
    superstep/reduce carries the prediction part of the model).

    Batches are formed by a deterministic id bucket and sorted by id, so
    the final logits are bit-identical across runs (SIMD matmuls are not
    bit-stable under batch-composition changes).
    """
    return state.groupBy(_bucket("id", n_buckets)).applyInArrow(
        lambda tbl: kernel.head(model, tbl), kernel.head_schema(model.task)
    )


def count_comm(
    msgs: DataFrame, layer: GASLayer, *, partial_gather: bool, broadcast: bool
) -> tuple[int, int]:
    """Exact (rows, payload_floats) crossing logical workers this layer.

    * broadcast on (broadcastable layers) → a payload travels once per
      ``(src, worker(dst))``; the edge stream ships ids only.
    * partial-gather on (partial layers) → payload rows are the
      sender-side partials, one per ``(worker(src), dst)``.
    """
    if broadcast and layer.broadcastable:
        rows = int(msgs.select("src", worker_of(F.col("dst"))).distinct().count())
        return rows, rows * layer.msg_dim
    if layer.partial and partial_gather:
        rows = int(
            msgs.select(worker_of(F.col("src")).alias("w"), "dst").distinct().count()
        )
        return rows, rows * layer.aggregator.partial_dim
    rows = int(msgs.count())
    return rows, rows * layer.msg_dim


def per_worker_io(msgs: DataFrame) -> pd.DataFrame:
    """Messages received per logical worker (straggler/tail analysis)."""
    return (
        msgs.groupBy(worker_of(F.col("dst")).alias("worker"))
        .agg(F.count("*").alias("in_msgs"))
        .orderBy("worker")
        .toPandas()
    )


class Timer:
    """Context manager measuring wall seconds."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0
