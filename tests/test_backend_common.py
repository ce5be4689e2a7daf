"""Unit tests for what both backends share: logical workers and run
statistics."""
import pytest
from pyspark.sql import functions as F

from repro.backends.common import N_WORKERS, RoundStats, RunStats, worker_of
from repro.graphs.generators import power_law_graph


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


def test_runstats_accounting():
    rs = RunStats(backend="x", wall_s=60.0)
    rs.rounds = [RoundStats(0, msg_rows=10, msg_floats=100), RoundStats(1, 5, 50)]
    assert rs.total_msg_rows == 15
    assert rs.total_msg_bytes == 15 * 16 + 150 * 8
    assert rs.cpu_min(cores=16) == pytest.approx(16.0)
