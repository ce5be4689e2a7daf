"""The Pregel backend's physical plan: what a superstep costs in Spark jobs,
what crosses its one exchange, and inputs off the happy path."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.backends import pregel
from repro.backends.pregel import infer_pregel
from repro.core.model import build_gat, build_sage
from repro.core.reference import forward_full
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.strategies import StrategyConfig

PG = StrategyConfig(partial_gather=True)


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(
        spark, n_nodes=120, avg_degree=5, skew="both", alpha=1.2, feat_dim=6, seed=3
    )


@pytest.mark.parametrize("n_layers", [2, 3])
def test_job_count_per_run(spark, graph, n_layers):
    """Load takes four jobs, each superstep two (its exchange, then its
    checkpoint or the collect)."""
    nodes, edges = graph
    model = build_sage(6, 10, 4, n_layers=n_layers, seed=1)
    sc = spark.sparkContext
    group = f"pregel-jobs-{n_layers}"
    sc.setJobGroup(group, "infer_pregel job count")
    try:
        infer_pregel(spark, nodes, edges, model, strategies=PG)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 2 * n_layers + 4


@pytest.mark.parametrize("strat", [StrategyConfig.none(), PG], ids=["none", "pg"])
def test_frame_traffic_equals_accounting(spark, graph, monkeypatch, strat):
    """Every frame entering a superstep's exchange holds each vertex once
    plus exactly the message rows and payload floats ``count_comm``
    accounts for that layer."""
    nodes, edges = graph
    model = build_sage(6, 10, 4, n_layers=3, seed=1)
    frames = []

    def record(eng):
        f = eng.frame
        msgs = f.filter(F.col("dst").isNotNull())
        frames.append(
            (
                f.filter(F.col("id").isNotNull()).count(),
                msgs.count(),
                msgs.agg(F.sum(F.size("payload"))).first()[0] or 0,
            )
        )

    init, superstep = pregel.Pregel.__init__, pregel.Pregel.superstep

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record(self)

    def traced_superstep(self, *args, **kwargs):
        out = superstep(self, *args, **kwargs)
        if out is self.frame:
            record(self)
        return out

    monkeypatch.setattr(pregel.Pregel, "__init__", traced_init)
    monkeypatch.setattr(pregel.Pregel, "superstep", traced_superstep)
    _, stats = infer_pregel(spark, nodes, edges, model, strategies=strat, instrument=True)
    n = nodes.count()
    assert frames == [(n, r.msg_rows, r.msg_floats) for r in stats.rounds]


def _edge_cases(n):
    """Edge lists of an ``n``-node graph off the happy path."""
    ring = np.arange(n // 2)
    return {
        "zero_edges": ([], []),
        # the second half of the nodes neither sends nor receives
        "isolated_nodes": (ring, np.roll(ring, 1)),
        "self_loops": (np.r_[np.arange(n), 0, 1], np.r_[np.arange(n), 1, 2]),
        "multi_edges": ([0, 0, 0, 1, 1, 2, 3, 3], [1, 1, 1, 2, 2, 0, 4, 4]),
    }


@pytest.mark.parametrize("case", list(_edge_cases(10)))
@pytest.mark.parametrize("model_key", ["sage", "gat"])
@pytest.mark.parametrize("strat", [StrategyConfig.none(), PG], ids=["none", "pg"])
def test_inputs_off_the_happy_path(spark, case, model_key, strat):
    n, d = 10, 6
    src, dst = _edge_cases(n)[case]
    feat = np.random.default_rng(2).standard_normal((n, d))
    nodes = spark.createDataFrame(pd.DataFrame({"id": np.arange(n), "feat": list(feat)}))
    edges = spark.createDataFrame(
        pd.DataFrame({"src": np.asarray(src, "int64"), "dst": np.asarray(dst, "int64")}),
        "src long, dst long",
    )
    model = (
        build_sage(d, 8, 3, seed=4) if model_key == "sage" else build_gat(d, 8, 3, heads=2, seed=4)
    )
    result, _ = infer_pregel(spark, nodes, edges, model, strategies=strat)
    pdf = result.toPandas().sort_values("id")
    assert pdf["id"].tolist() == list(range(n))
    ref = forward_full(model, LocalGraph.from_spark(nodes, edges))
    np.testing.assert_allclose(np.stack(pdf["logits"].to_numpy()), ref, atol=1e-8)
