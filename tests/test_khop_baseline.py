"""Traditional k-hop baseline: sampling semantics, redundancy, budget,
and agreement with the reference at full fanout."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.backends.common import release
from repro.backends.khop import KhopBudgetExceeded, infer_khop, sample_khop_edges
from repro.core.model import build_sage
from repro.core.reference import forward_full
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.oracle import assert_equivalent

FULL = 10**6


@pytest.fixture(scope="module")
def graph(spark):
    nodes, edges = power_law_graph(
        spark, n_nodes=120, avg_degree=4, skew="both", feat_dim=6, seed=8
    )
    return nodes, edges, LocalGraph.from_spark(nodes, edges)


@pytest.fixture(scope="module")
def model():
    return build_sage(6, 10, 4, seed=3)


def test_one_hop_full_fanout_oracle(spark, graph):
    """1-hop unsampled neighborhood == SQL join of targets with in-edges."""
    nodes, edges, _ = graph
    targets = nodes.select("id").limit(30)
    sub, _ = sample_khop_edges(edges, targets, hops=1, fanout=FULL, seed=0)
    assert_equivalent(
        sub,
        "select t.id as target, e.src, e.dst from targets t "
        "join edges e on e.dst = t.id",
        targets=targets,
        edges=edges,
    )


def test_fanout_cap_enforced(spark, graph):
    nodes, edges, _ = graph
    targets = nodes.select("id")
    sub, _ = sample_khop_edges(edges, targets, hops=2, fanout=3, seed=0)
    worst = sub.groupBy("target", "dst").count().agg(F.max("count")).first()[0]
    assert worst <= 3


def test_redundancy_exists(spark, graph):
    """The same physical edge appears in many targets' neighborhoods —
    the baseline's defining redundant computation."""
    nodes, edges, _ = graph
    sub, rows = sample_khop_edges(
        edges, nodes.select("id"), hops=2, fanout=FULL, seed=0
    )
    distinct_edges = sub.select("src", "dst").distinct().count()
    assert sub.count() > 2 * distinct_edges


def test_full_fanout_matches_reference(spark, graph, model):
    nodes, edges, g = graph
    ref = forward_full(model, g)
    ref_pred = model.predict(ref)
    res, _ = infer_khop(spark, nodes, edges, model, fanout=FULL, seed=0)
    pdf = res.toPandas().sort_values("id")
    assert (pdf["pred"].to_numpy() == ref_pred[pdf["id"].to_numpy()]).all()
    assert len(pdf) == g.n
    logits = np.stack(pdf["logits"].to_numpy())
    assert np.allclose(logits, ref[pdf["id"].to_numpy()], atol=1e-8)


def test_same_seed_is_deterministic(spark, graph, model):
    nodes, edges, _ = graph
    a, _ = infer_khop(spark, nodes, edges, model, fanout=2, seed=5)
    b, _ = infer_khop(spark, nodes, edges, model, fanout=2, seed=5)
    a, b = a.toPandas().sort_values("id"), b.toPandas().sort_values("id")
    pa, pb = a["pred"].to_numpy(), b["pred"].to_numpy()
    assert (pa == pb).all()
    np.testing.assert_array_equal(np.stack(a["logits"]), np.stack(b["logits"]))


def test_different_seeds_flip_predictions(spark, graph, model):
    """Fig. 7's pathology: sampling makes predictions run-dependent."""
    nodes, edges, _ = graph
    a, _ = infer_khop(spark, nodes, edges, model, fanout=2, seed=1)
    b, _ = infer_khop(spark, nodes, edges, model, fanout=2, seed=2)
    pa = a.toPandas().sort_values("id")["pred"].to_numpy()
    pb = b.toPandas().sort_values("id")["pred"].to_numpy()
    assert (pa != pb).any()


def test_stats_count_neighborhood_rows(spark, graph, model):
    """``total_msg_rows`` is the sampled neighborhood volume the run made."""
    nodes, edges, _ = graph
    sub, rows = sample_khop_edges(
        edges, nodes.select("id"), hops=model.n_layers, fanout=2, seed=4
    )
    release(sub)
    _, stats = infer_khop(spark, nodes, edges, model, fanout=2, seed=4)
    assert stats.total_msg_rows == rows > 0


def test_edge_endpoint_without_node_row_raises(spark, graph, model):
    nodes, edges, _ = graph
    missing = edges.filter(F.col("src") != F.col("dst")).first()["src"]
    with pytest.raises(Exception, match=f"unknown node id {missing}"):
        infer_khop(spark, nodes.filter(F.col("id") != missing), edges, model, fanout=FULL)


def test_row_budget_raises(spark, graph, model):
    nodes, edges, _ = graph
    with pytest.raises(KhopBudgetExceeded):
        infer_khop(spark, nodes, edges, model, fanout=FULL, seed=0, row_budget=50)


def test_row_budget_reports_counts(spark, graph, model):
    nodes, edges, _ = graph
    try:
        infer_khop(spark, nodes, edges, model, fanout=FULL, seed=0, row_budget=50)
    except KhopBudgetExceeded as e:
        assert e.rows > e.budget == 50


def test_targets_subset(spark, graph, model):
    nodes, edges, _ = graph
    targets = nodes.select("id").limit(10)
    res, _ = infer_khop(spark, nodes, edges, model, fanout=FULL, seed=0, targets=targets)
    assert res.count() == 10


def test_rows_grow_with_hops(spark, graph):
    """Neighborhood volume grows super-linearly in hop count."""
    nodes, edges, _ = graph
    targets = nodes.select("id")
    r = {}
    for hops in (1, 2, 3):
        _, r[hops] = sample_khop_edges(edges, targets, hops=hops, fanout=FULL, seed=0)
    assert r[1] < r[2] < r[3]
    assert (r[3] - r[2]) > (r[2] - r[1]) * 0.8  # still expanding fast
