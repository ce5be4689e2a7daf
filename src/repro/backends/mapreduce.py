"""The batch-processing (MapReduce/Spark) backend — paper §IV-C2.

Defining property: **nothing lives in memory between rounds**. The map
phase materializes the initial node state to external storage (Parquet);
each reduce round reads the previous state and the edge table back from
storage, performs one GAS layer, and writes the new state out. The last
round additionally applies the prediction slice of the model.

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
from pyspark.sql import functions as F

from repro.backends.common import (
    RoundStats,
    RunStats,
    Timer,
    apply_head,
    apply_layer,
    count_comm,
    scatter_messages,
)
from repro.core.model import GNNModel
from repro.graphs import shadow
from repro.strategies import StrategyConfig


def infer_mr(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    model: GNNModel,
    *,
    workdir: str | Path,
    strategies: StrategyConfig = StrategyConfig.none(),
    n_workers: int = 16,
    n_buckets: int = 64,
    instrument: bool = False,
) -> tuple[DataFrame, RunStats]:
    """Full-graph inference on the MapReduce backend.

    Returns ``(result, stats)`` where ``result`` has columns
    ``(id, logits, pred)`` for every node (mirror rows already dropped).

    The run's files — the edges, each round's state ``state_k.parquet``
    and ``result.parquet``, which ``result`` reads — go to a new
    subdirectory of ``workdir`` that the caller owns; nothing else there
    is touched. A run that fails removes its subdirectory.
    """
    Path(workdir).mkdir(parents=True, exist_ok=True)
    run = Path(tempfile.mkdtemp(prefix="infer_mr-", dir=workdir))
    stats = RunStats(backend="mapreduce")
    try:
        with Timer() as t:
            if strategies.shadow_nodes:
                thr = shadow.shadow_threshold(edges.count(), n_workers, strategies.shadow_lambda)
                nodes, edges, _ = shadow.apply_shadow_nodes(nodes, edges, threshold=thr)

            edges_path = str(run / "edges.parquet")
            edges.select("src", "dst").write.parquet(edges_path)

            # Map phase: initial state h0 = x to external storage.
            state_path = str(run / "state_0.parquet")
            nodes.select("id", F.col("feat").alias("h")).write.parquet(state_path)

            for k, layer in enumerate(model.layers):
                state = spark.read.parquet(state_path)
                edge_t = spark.read.parquet(edges_path)
                msgs, _ = scatter_messages(
                    edge_t, state, layer, broadcast=strategies.broadcast
                )
                if instrument:
                    rows, floats = count_comm(
                        msgs,
                        layer,
                        partial_gather=strategies.partial_gather,
                        broadcast=strategies.broadcast,
                    )
                    stats.rounds.append(RoundStats(layer=k, msg_rows=rows, msg_floats=floats))
                new_state = apply_layer(
                    state,
                    msgs,
                    layer,
                    partial_gather=strategies.partial_gather,
                    n_buckets=n_buckets,
                )
                state_path = str(run / f"state_{k + 1}.parquet")
                new_state.write.parquet(state_path)

            # Final reduce carries the prediction slice.
            result = apply_head(spark.read.parquet(state_path), model)
            if strategies.shadow_nodes:
                result = shadow.drop_mirrors(result)
            out_path = str(run / "result.parquet")
            result.write.parquet(out_path)
            result = spark.read.parquet(out_path)
    except BaseException:
        shutil.rmtree(run, ignore_errors=True)
        raise
    stats.wall_s = t.wall_s
    return result, stats
