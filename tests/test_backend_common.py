"""Unit tests for the shared GAS data-flow machinery."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.backends.common import (
    N_WORKERS,
    RoundStats,
    RunStats,
    apply_head,
    scatter_messages,
    worker_of,
)
from repro.core.model import build_sage
from repro.core.sage import SAGEConv
from repro.graphs.generators import power_law_graph
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, n_nodes=200, avg_degree=4, feat_dim=6, seed=13)


def test_worker_of_range(spark, graph):
    nodes, _ = graph
    w = nodes.select(worker_of(F.col("id")).alias("w"))
    mn, mx = w.agg(F.min("w"), F.max("w")).first()
    assert 0 <= mn and mx < N_WORKERS


def test_worker_of_deterministic(spark, graph):
    nodes, _ = graph
    a = nodes.select("id", worker_of(F.col("id")).alias("w")).toPandas()
    b = nodes.select("id", worker_of(F.col("id")).alias("w")).toPandas()
    assert a.equals(b)


def test_scatter_plain_one_message_per_edge(spark, graph):
    nodes, edges = graph
    state = nodes.select("id", F.col("feat").alias("h"))
    layer = SAGEConv(6, 8)
    msgs, bcast = scatter_messages(edges, state, layer, broadcast=False)
    assert bcast is None
    assert msgs.count() == edges.count()
    assert_equivalent(
        msgs.select("src", "dst"), "select src, dst from edges", edges=edges
    )


def test_scatter_payload_is_source_state(spark, graph):
    nodes, edges = graph
    state = nodes.select("id", F.col("feat").alias("h"))
    layer = SAGEConv(6, 8)
    msgs, _ = scatter_messages(edges, state, layer, broadcast=False)
    row = msgs.first()
    feat = nodes.filter(F.col("id") == row["src"]).first()["feat"]
    np.testing.assert_allclose(row["payload"], feat)


def test_apply_head_multiclass(spark, graph):
    nodes, _ = graph
    model = build_sage(6, 10, 4, seed=2)
    # pretend features are final states of dim 10
    state = nodes.select(
        "id", F.slice(F.concat(F.col("feat"), F.col("feat")), 1, 10).alias("h")
    )
    res = apply_head(state, model).toPandas().sort_values("id")
    h = np.stack(state.toPandas().sort_values("id")["h"].to_numpy())
    logits = h @ model.head.params["w"].data + model.head.params["b"].data
    np.testing.assert_allclose(np.stack(res["logits"].to_numpy()), logits, atol=1e-10)
    np.testing.assert_array_equal(res["pred"].to_numpy(), logits.argmax(1))


def test_runstats_accounting():
    rs = RunStats(backend="x", wall_s=60.0)
    rs.rounds = [RoundStats(0, msg_rows=10, msg_floats=100), RoundStats(1, 5, 50)]
    assert rs.total_msg_rows == 15
    assert rs.total_msg_bytes == 15 * 16 + 150 * 8
    assert rs.cpu_min(cores=16) == pytest.approx(16.0)
