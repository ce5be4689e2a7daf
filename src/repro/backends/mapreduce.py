"""The batch-processing (MapReduce/Spark) backend — paper §IV-C2.

Defining property: **nothing lives in memory between rounds**. It runs
the same vertex program as the Pregel backend
(:func:`repro.backends.pregel.load_gnn`) on the same engine, but each
round's frame — node records carrying their state and out-edges, plus
the messages they send, shuffled along with the state "to itself" —
goes to external storage (Parquet) and is read back by the next round.
The map phase writes ``state_0``; the reduce round of layer k reads
``state_k`` and writes ``state_{k+1}``. The last layer's round applies
the prediction slice of the model in the same pass, so ``state_L``
holds each node's final state with its logits and prediction, and is
the result. Under shadow nodes the map phase holds the vertex rows in
executor memory, which the hubs are decided from, until ``state_0`` is
stored; nothing stays resident between rounds.

This is deliberately heavier on IO than the Pregel backend and lighter
on resident memory — matching the paper's trade-off (Table III: On-MR
slower than On-Pregel, but the backend of choice for the largest
graphs).
"""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

from repro.backends import kernel
from repro.backends.common import RunStats, Timer
from repro.backends.pregel import VERTEX_SCHEMA, load_gnn
from repro.core.model import GNNModel
from repro.strategies import StrategyConfig


def infer_mr(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    *,
    workdir: str | Path,
    strategies: StrategyConfig = StrategyConfig.none(),
    instrument: bool = False,
) -> tuple[DataFrame, RunStats]:
    """Full-graph inference on the MapReduce backend.

    Returns ``(result, stats)`` where ``result`` has columns
    ``(id, logits, pred)`` for every node.

    The run's files — each round's ``state_k.parquet``, the last one
    holding every node's final ``h`` with its ``logits`` and ``pred``,
    which ``result`` reads — go to a new subdirectory of ``workdir`` that
    the caller owns; nothing else there is touched. A run that fails
    removes its subdirectory.
    """
    Path(workdir).mkdir(parents=True, exist_ok=True)
    run = Path(tempfile.mkdtemp(prefix="infer_mr-", dir=workdir))
    stats = RunStats(backend="mapreduce")
    head = kernel.head_schema(model.task)
    schema = StructType(head.fields + [VERTEX_SCHEMA["h"]])
    try:
        with Timer() as t:
            eng, compute = load_gnn(
                nodes, edges, model, strategies, stats, instrument=instrument, rundir=run
            )
            for k in range(model.n_layers - 1):
                eng.superstep(k, compute)
            state = eng.superstep(
                model.n_layers - 1,
                lambda k, verts, msgs: _head_and_state(model, compute(k, verts, msgs)),
                schema=schema,
            )
            result = state.select(head.names)
    except BaseException:
        shutil.rmtree(run, ignore_errors=True)
        raise
    stats.wall_s = t.wall_s
    return result, stats


def _head_and_state(model: GNNModel, state: pa.Table) -> pa.Table:
    """:func:`kernel.head`'s rows ``(id, logits, pred)`` of final vertex
    rows, each with its node's ``h``."""
    # the head sorts its rows by id, so states sorted by id line up with them
    state = state.take(kernel.order_by(state, "id"))
    return kernel.head(model, state).append_column("h", state["h"])
