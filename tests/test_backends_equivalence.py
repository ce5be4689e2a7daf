"""InferTurbo backends vs the local dense reference.

The paper's central correctness claim: full-graph GAS inference "never
changes the formula of GNNs or introduces any approximation", so both
backends — under every optimization-strategy combination — must produce
the same logits as a dense local forward, for both SAGE and GAT.
"""
import numpy as np
import pytest

from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import build_vertices, infer_pregel
from repro.core.model import Dense, GNNModel, build_gat, build_sage
from repro.core.reference import forward_full
from repro.core.sage import SAGEConv
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.graphs.shadow import apply_shadow_nodes
from repro.strategies import StrategyConfig


@pytest.fixture(scope="module")
def graph(spark):
    nodes, edges = power_law_graph(
        spark, n_nodes=150, avg_degree=5, skew="both", alpha=1.2, feat_dim=6, seed=4
    )
    return nodes, edges, LocalGraph.from_spark(nodes, edges)


MODELS = {
    "sage": lambda: build_sage(6, 10, 4, seed=5),
    "sage_max": lambda: build_sage(6, 10, 4, agg="max", seed=5),
    "sage_sum": lambda: build_sage(6, 10, 4, agg="sum", seed=5),
    "gat": lambda: build_gat(6, 10, 4, heads=2, seed=5),
}

STRATS = {
    "none": StrategyConfig.none(),
    "pg": StrategyConfig(partial_gather=True),
    "bc": StrategyConfig(broadcast=True),
    "sn": StrategyConfig(shadow_nodes=True),
    "all": StrategyConfig.all(),
}


def test_graph_has_hubs(graph):
    """The shadow-nodes cases split real hubs at the paper's λ = 0.1."""
    nodes, edges, _ = graph
    _, n_hubs, _, _ = apply_shadow_nodes(build_vertices(nodes, edges))
    assert n_hubs > 0


def _check(result, ref, atol=1e-8):
    pdf = result.toPandas().sort_values("id")
    got = np.stack(pdf["logits"].to_numpy())
    np.testing.assert_allclose(got, ref[pdf["id"].to_numpy()], atol=atol)
    assert len(pdf) == ref.shape[0]


@pytest.mark.parametrize("model_key", list(MODELS))
def test_mr_matches_reference(spark, graph, tmp_path, model_key):
    nodes, edges, g = graph
    model = MODELS[model_key]()
    ref = forward_full(model, g)
    result, _ = infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr")
    _check(result, ref)


@pytest.mark.parametrize("model_key", list(MODELS))
def test_pregel_matches_reference(spark, graph, model_key):
    nodes, edges, g = graph
    model = MODELS[model_key]()
    ref = forward_full(model, g)
    result, _ = infer_pregel(spark, nodes, edges, model)
    _check(result, ref)


# every pooling aggregator under every strategy, lifted on the receiver
# and merged from sender-side partials; the mean-pool ids stay bare
SAGE_STRATS = [
    pytest.param(m, s, id=s if m == "sage" else f"{m}-{s}")
    for m in ("sage", "sage_sum", "sage_max")
    for s in STRATS
    if s != "none"
]


@pytest.mark.parametrize("model_key,strat_key", SAGE_STRATS)
def test_mr_strategies_preserve_results_sage(spark, graph, tmp_path, model_key, strat_key):
    nodes, edges, g = graph
    model = MODELS[model_key]()
    ref = forward_full(model, g)
    result, _ = infer_mr(
        spark,
        nodes,
        edges,
        model,
        workdir=tmp_path / "mr",
        strategies=STRATS[strat_key],
    )
    _check(result, ref)


@pytest.mark.parametrize("model_key,strat_key", SAGE_STRATS)
def test_pregel_strategies_preserve_results_sage(spark, graph, model_key, strat_key):
    nodes, edges, g = graph
    model = MODELS[model_key]()
    ref = forward_full(model, g)
    result, _ = infer_pregel(spark, nodes, edges, model, strategies=STRATS[strat_key])
    _check(result, ref)


@pytest.mark.parametrize("strat_key", ["pg", "all"])
def test_gat_ignores_partial_gather_safely(spark, graph, tmp_path, strat_key):
    """Partial-gather is illegal for GAT (union aggregate); enabling the
    strategy must silently fall back, not corrupt results."""
    nodes, edges, g = graph
    model = MODELS["gat"]()
    ref = forward_full(model, g)
    result, _ = infer_mr(
        spark,
        nodes,
        edges,
        model,
        workdir=tmp_path / "mr",
        strategies=STRATS[strat_key],
    )
    _check(result, ref)


class ScaledSAGE(SAGEConv):
    """SAGE-mean whose nodes send twice their state."""

    def scatter(self, h):
        return h * 2.0


@pytest.mark.parametrize("backend", ["mr", "pregel"])
@pytest.mark.parametrize("strat_key", ["none", "pg", "bc"])
def test_scatter_is_the_data_path(spark, graph, tmp_path, backend, strat_key):
    """A layer's ``scatter`` is what its nodes send, per edge, as partials
    and as broadcast rows: overriding it changes the backends' logits, to
    those of the layer's own forward."""
    nodes, edges, g = graph
    rng = np.random.default_rng(5)  # MODELS["sage"]'s weights
    layers = [ScaledSAGE(6, 10, rng=rng), ScaledSAGE(10, 10, rng=rng)]
    model = GNNModel(layers, Dense(10, 4, rng=rng))
    strat = STRATS[strat_key]
    if backend == "mr":
        result, _ = infer_mr(spark, nodes, edges, model, workdir=tmp_path, strategies=strat)
    else:
        result, _ = infer_pregel(spark, nodes, edges, model, strategies=strat)
    _check(result, forward_full(model, g))
    got = np.stack(result.toPandas().sort_values("id")["logits"].to_numpy())
    assert not np.allclose(got, forward_full(MODELS["sage"](), g), atol=1e-3)


@pytest.mark.parametrize("strat_key", ["none", "all"])
def test_mr_and_pregel_bit_identical(spark, graph, tmp_path, strat_key):
    """The two backends implement the same abstraction: same bits out."""
    nodes, edges, g = graph
    model = MODELS["sage"]()
    strat = STRATS[strat_key]
    a, _ = infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr", strategies=strat)
    b, _ = infer_pregel(spark, nodes, edges, model, strategies=strat)
    pa = a.toPandas().sort_values("id").reset_index(drop=True)
    pb = b.toPandas().sort_values("id").reset_index(drop=True)
    np.testing.assert_array_equal(
        np.stack(pa["logits"].to_numpy()), np.stack(pb["logits"].to_numpy())
    )
    assert (pa["pred"].to_numpy() == pb["pred"].to_numpy()).all()


def test_predictions_match_logits(spark, graph, tmp_path):
    nodes, edges, g = graph
    model = MODELS["sage"]()
    result, _ = infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr")
    pdf = result.toPandas()
    np.testing.assert_array_equal(
        pdf["pred"].to_numpy(), np.stack(pdf["logits"].to_numpy()).argmax(1)
    )


def test_multilabel_predictions(spark, graph, tmp_path):
    nodes, edges, g = graph
    model = build_sage(6, 10, 4, task="multilabel", seed=5)
    result, _ = infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr")
    pdf = result.toPandas()
    logits = np.stack(pdf["logits"].to_numpy())
    preds = np.stack(pdf["pred"].to_numpy())
    np.testing.assert_array_equal(preds, (logits > 0).astype("int64"))


@pytest.mark.parametrize("n_layers", [1, 3])
def test_layer_count_respected(spark, graph, tmp_path, n_layers):
    nodes, edges, g = graph
    model = build_sage(6, 10, 4, n_layers=n_layers, seed=5)
    ref = forward_full(model, g)
    result, stats = infer_mr(
        spark,
        nodes,
        edges,
        model,
        workdir=tmp_path / "mr",
        instrument=True,
    )
    _check(result, ref)
    assert len(stats.rounds) == n_layers
