"""Layer-by-layer agreement: the MR backend's persisted round states are
exactly the reference's intermediate embeddings (the hierarchical,
layer-wise property of §IV-B2)."""
import numpy as np
import pytest

from repro.backends.mapreduce import infer_mr
from repro.core.model import build_gat, build_sage
from repro.core.reference import embeddings_per_layer, forward_full, predict_full
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.strategies import StrategyConfig


@pytest.fixture(scope="module")
def graph(spark):
    nodes, edges = power_law_graph(
        spark, n_nodes=100, avg_degree=4, feat_dim=6, seed=19
    )
    return nodes, edges, LocalGraph.from_spark(nodes, edges)


def _run_dir(workdir):
    """The subdirectory one infer_mr run wrote its rounds to."""
    (run,) = workdir.iterdir()
    return run


def _vertex_rows(spark, workdir, k):
    """Round ``k``'s persisted node states: the vertex rows of its frame."""
    frame = spark.read.parquet(str(_run_dir(workdir) / f"state_{k}.parquet"))
    return frame.filter("id IS NOT NULL")


@pytest.mark.parametrize("builder", [build_sage, build_gat])
def test_round_states_match_reference_layers(spark, graph, tmp_path, builder):
    nodes, edges, g = graph
    model = builder(6, 8, 3, n_layers=2, seed=9)
    infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr")
    ref_layers = embeddings_per_layer(model, g)
    for k in (1, 2):
        state = _vertex_rows(spark, tmp_path / "mr", k)
        pdf = state.toPandas().sort_values("id")
        got = np.stack(pdf["h"].to_numpy())
        np.testing.assert_allclose(
            got, ref_layers[k - 1][pdf["id"].to_numpy()], atol=1e-9
        )


def test_round_zero_state_is_raw_features(spark, graph, tmp_path):
    nodes, edges, g = graph
    model = build_sage(6, 8, 3, seed=9)
    infer_mr(spark, nodes, edges, model, workdir=tmp_path / "mr")
    state0 = _vertex_rows(spark, tmp_path / "mr", 0)
    pdf = state0.toPandas().sort_values("id")
    np.testing.assert_allclose(
        np.stack(pdf["h"].to_numpy()), g.feat[pdf["id"].to_numpy()], atol=1e-12
    )


def test_last_round_state_holds_the_result(spark, graph, tmp_path):
    """``state_L`` holds each original node once — no shadow mirrors — with
    the logits and prediction ``infer_mr`` returns."""
    nodes, edges, g = graph
    model = build_sage(6, 8, 3, n_layers=2, seed=9)
    result, _ = infer_mr(
        spark, nodes, edges, model, workdir=tmp_path / "mr", strategies=StrategyConfig.all()
    )
    state = _vertex_rows(spark, tmp_path / "mr", 2).toPandas().sort_values("id")
    got = result.toPandas().sort_values("id")
    assert state["id"].tolist() == got["id"].tolist() == list(range(g.n))
    np.testing.assert_array_equal(np.stack(state["logits"]), np.stack(got["logits"]))
    np.testing.assert_array_equal(state["pred"], got["pred"])


def test_predict_full_consistent_with_forward(graph):
    _, _, g = graph
    model = build_sage(6, 8, 3, seed=9)
    np.testing.assert_array_equal(
        predict_full(model, g), model.predict(forward_full(model, g))
    )


def test_embeddings_per_layer_shapes(graph):
    _, _, g = graph
    model = build_gat(6, 8, 3, n_layers=3, seed=9)
    layers = embeddings_per_layer(model, g)
    assert [e.shape for e in layers] == [(g.n, 8)] * 3
