"""The superstep engine's physical plan under both backends: what a run
costs in Spark jobs, what crosses each superstep's one exchange, and
inputs off the happy path."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.backends import pregel
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_gat, build_sage
from repro.core.reference import forward_full
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.strategies import StrategyConfig

PG = StrategyConfig(partial_gather=True)


def _per_backend(name, values, ids):
    """Parametrize ``backend`` and ``name`` together, ``values`` on each
    backend; the Pregel cases keep their bare ids."""
    return pytest.mark.parametrize(
        f"backend,{name}",
        [
            pytest.param(backend, v, id=i if backend == "pregel" else f"mr-{i}")
            for backend in ("pregel", "mr")
            for v, i in zip(values, ids)
        ],
    )


STRATS = _per_backend("strat", [StrategyConfig.none(), PG], ["none", "pg"])


def _infer(backend, spark, nodes, edges, model, tmp_path, **kwargs):
    if backend == "mr":
        return infer_mr(spark, nodes, edges, model, workdir=tmp_path, **kwargs)
    return infer_pregel(spark, nodes, edges, model, **kwargs)


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(
        spark, n_nodes=120, avg_degree=5, skew="both", alpha=1.2, feat_dim=6, seed=3
    )


@_per_backend("n_layers", [2, 3], ["2", "3"])
def test_job_count_per_run(spark, graph, tmp_path, backend, n_layers):
    """Load takes four jobs, each superstep two (its exchange, then its
    checkpoint, Parquet write or the collect). MapReduce's head has a
    pass of its own, two jobs more."""
    nodes, edges = graph
    model = build_sage(6, 10, 4, n_layers=n_layers, seed=1)
    sc = spark.sparkContext
    group = f"{backend}-jobs-{n_layers}"
    sc.setJobGroup(group, "inference job count")
    try:
        _infer(backend, spark, nodes, edges, model, tmp_path, strategies=PG)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    bound = 2 * n_layers + (4 if backend == "pregel" else 6)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= bound


@STRATS
def test_frame_traffic_equals_accounting(spark, graph, tmp_path, monkeypatch, backend, strat):
    """Every frame entering a superstep's exchange holds each vertex once
    plus exactly the message rows and payload floats ``count_comm``
    accounts for that layer; MapReduce's final frame, which enters the
    head's pass, holds the vertices alone."""
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
    _, stats = _infer(
        backend, spark, nodes, edges, model, tmp_path, strategies=strat, instrument=True
    )
    n = nodes.count()
    expected = [(n, r.msg_rows, r.msg_floats) for r in stats.rounds]
    assert frames == expected + ([(n, 0, 0)] if backend == "mr" else [])


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
@STRATS
def test_inputs_off_the_happy_path(spark, tmp_path, backend, case, model_key, strat):
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
    result, _ = _infer(backend, spark, nodes, edges, model, tmp_path, strategies=strat)
    pdf = result.toPandas().sort_values("id")
    assert pdf["id"].tolist() == list(range(n))
    ref = forward_full(model, LocalGraph.from_spark(nodes, edges))
    np.testing.assert_allclose(np.stack(pdf["logits"].to_numpy()), ref, atol=1e-8)
