"""Unit tests for what both backends share: logical workers and run
statistics."""
import numpy as np
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro.backends import kernel
from repro.backends.common import N_WORKERS, RoundStats, RunStats, worker_of
from repro.core.gas import GASLayer
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


def test_numpy_worker_equals_worker_of(spark):
    """The sender's NumPy placement and Spark's agree on zero, negative,
    int64-extreme, above-2^40 and random ids."""
    top = np.iinfo(np.int64)
    ids = np.concatenate(
        [
            [0, top.min, top.min + 1, top.max, top.max - 1],
            np.arange(-50, 50),
            (1 << 40) + np.arange(100),
            np.random.default_rng(7).integers(top.min, top.max, 2000, dtype=np.int64),
        ]
    ).astype(np.int64)
    df = spark.createDataFrame([(int(i),) for i in ids], "id long")
    got = df.select("id", worker_of(F.col("id")).alias("w")).toPandas()
    np.testing.assert_array_equal(kernel.worker(got["id"].to_numpy()), got["w"].to_numpy())


def test_broadcast_rows_route_with_their_destinations(spark):
    """A broadcast row's every destination lives on the worker its ``pid``
    routes it to, and a sender has one row per receiver worker."""
    rng = np.random.default_rng(8)
    n = 60
    ids = np.unique(rng.integers(-(1 << 41), 1 << 41, n))
    n = len(ids)
    deg = rng.integers(0, 40, n)
    adj = pa.ListArray.from_arrays(
        pa.array(np.r_[0, np.cumsum(deg)].astype(np.int32)),
        pa.array(rng.choice(ids, int(deg.sum()))),
    )
    verts = pa.table({"id": ids, "adj": adj, "h": kernel.from_matrix(rng.random((n, 3)))})
    rows = kernel.send(GASLayer(3, 3), "broadcast", verts)
    assert "dst" not in rows.column_names
    df = spark.createDataFrame(rows.select(["src", "pid", "adj"]).to_pandas())
    fanned = df.select("src", "pid", F.explode("adj").alias("to"))
    assert fanned.count() == deg.sum()
    assert fanned.filter(F.col("pid") != worker_of(F.col("to"))).count() == 0
    pairs = fanned.select("src", worker_of(F.col("to"))).distinct().count()
    assert rows.num_rows == pairs == df.select("src", "pid").distinct().count()


def test_runstats_accounting():
    rs = RunStats(backend="x", wall_s=60.0)
    rs.rounds = [RoundStats(0, msg_rows=10, msg_floats=100), RoundStats(1, 5, 50)]
    assert rs.total_msg_rows == 15
    assert rs.total_msg_bytes == 15 * 16 + 150 * 8
    assert rs.cpu_min(cores=16) == pytest.approx(16.0)
