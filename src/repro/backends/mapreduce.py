"""The batch-processing (MapReduce/Spark) backend — paper §IV-C2.

Defining property: **nothing lives in memory between rounds**. It runs
the same program as the Pregel backend, rounds and head included
(:func:`repro.backends.pregel.run_gnn`), on the same engine, but each
round's frame — node records carrying their state and out-edges, plus
the messages they send, shuffled along with the state "to itself" —
goes to external storage (Parquet) and is read back by the next round.
The map phase writes ``state_0``; the reduce round of layer k reads
``state_k`` and writes ``state_{k+1}``. The last layer's round applies
the prediction slice of the model in the same pass, so ``state_L``
holds each node's final state with its logits and prediction, and its
projection is the result. Under shadow nodes the map phase holds the
vertex rows in executor memory, which the hubs are decided from, until
``state_0`` is stored; nothing stays resident between rounds.

This is deliberately heavier on IO than the Pregel backend and lighter
on resident memory — matching the paper's trade-off (Table III: On-MR
slower than On-Pregel, but the backend of choice for the largest
graphs).
"""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession

from repro.backends.common import RunStats, Timer
from repro.backends.pregel import run_gnn
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
    try:
        with Timer() as t:
            # stored frames hold nothing in memory, so the engine needs no stop
            _, state = run_gnn(
                nodes, edges, model, strategies, stats, instrument=instrument, rundir=run
            )
            result = state.drop("h")
    except BaseException:
        shutil.rmtree(run, ignore_errors=True)
        raise
    stats.wall_s = t.wall_s
    return result, stats
