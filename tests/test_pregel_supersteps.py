"""The superstep engine's physical plan under both backends: what a run
costs in Spark jobs, what crosses each superstep's one exchange, and
inputs off the happy path."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.backends import pregel
from repro.backends.common import N_WORKERS, RunStats, planned, worker_of
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_gat, build_sage
from repro.core.reference import forward_full
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph
from repro.graphs.shadow import shadow_threshold
from repro.strategies import StrategyConfig

PG = StrategyConfig(partial_gather=True)
BC = StrategyConfig(broadcast=True)
ALL = StrategyConfig.all()


def _per_backend(names, values, ids):
    """Parametrize ``backend`` and ``names`` together, ``values`` on each
    backend (a tuple per case for several names); the Pregel cases keep
    their bare ids."""
    return pytest.mark.parametrize(
        f"backend,{names}",
        [
            pytest.param(
                backend, *(v if "," in names else (v,)), id=i if backend == "pregel" else f"mr-{i}"
            )
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


def _traffic_model(key, n_layers):
    if key == "sage":
        return build_sage(6, 10, 4, n_layers=n_layers, seed=1)
    return build_gat(6, 10, 4, n_layers=n_layers, heads=2, seed=1)


@_per_backend(
    "model_key,n_layers,strat",
    [("sage", 2, PG), ("sage", 3, PG), ("sage", 2, ALL), ("gat", 2, ALL)],
    ["2", "3", "all-2", "gat-all-2"],
)
def test_job_count_per_run(spark, graph, tmp_path, backend, model_key, n_layers, strat):
    """Pregel plans its own queries, so each is one job: the load (the
    vertex rows' exchanges and the first pass, checkpointed), each
    superstep (its exchange and pass, checkpointed) and the last one's
    collect of the head's rows, L + 1 in all. MapReduce's Parquet writes
    keep adaptive execution, which runs each exchange as a job of its
    own: the load's three exchanges and write are four, each round's
    exchange and write two, 2L + 4 in all. Both apply the head in the last
    superstep's pass. Shadow nodes add one job checkpointing the vertex
    rows and two deciding the hubs over them (the aggregate, the hub
    filter, each planned as one job); MapReduce's load then writes from
    the held rows, one exchange and the write, so it adds one in all.
    Broadcast adds nothing."""
    nodes, edges = graph
    model = _traffic_model(model_key, n_layers)
    sc = spark.sparkContext
    group = f"{backend}-jobs-{model_key}-{n_layers}-{strat.shadow_nodes}"
    sc.setJobGroup(group, "inference job count")
    try:
        _infer(backend, spark, nodes, edges, model, tmp_path, strategies=strat)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    if backend == "mr":
        bound = 2 * n_layers + 4 + (1 if strat.shadow_nodes else 0)
    else:
        bound = n_layers + 1 + (3 if strat.shadow_nodes else 0)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= bound


def _on_stored_frames(monkeypatch, measure) -> list:
    """``measure`` of every frame the engine stores — the load's and each
    superstep's but the last — in the order stored."""
    seen = []
    init, superstep = pregel.Pregel.__init__, pregel.Pregel.superstep

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(measure(self.frame))

    def traced_superstep(self, *args, **kwargs):
        out = superstep(self, *args, **kwargs)
        if out is self.frame:
            seen.append(measure(out))
        return out

    monkeypatch.setattr(pregel.Pregel, "__init__", traced_init)
    monkeypatch.setattr(pregel.Pregel, "superstep", traced_superstep)
    return seen


def _routing(f) -> tuple[int, int, int]:
    """A frame's message rows, its broadcast rows, and the message rows
    whose ``pid`` is not the worker of their ``dst`` or, for a broadcast
    row (an ``adj`` and no ``dst``), of every destination in its ``adj``."""
    msgs = f.filter(F.col("id").isNull())
    pid = F.col("pid")
    routed = F.when(F.col("adj").isNull(), pid == worker_of(F.col("dst"))).otherwise(
        F.col("dst").isNull() & ~F.exists("adj", lambda d: pid != worker_of(d))
    )
    return (
        msgs.count(),
        msgs.filter(F.col("adj").isNotNull()).count(),
        msgs.filter(~F.coalesce(routed, F.lit(False))).count(),
    )


@_per_backend(
    "model_key,strat",
    [("sage", StrategyConfig.none()), ("sage", PG), ("sage", BC), ("gat", ALL)],
    ["none", "pg", "bc", "gat-all"],
)
def test_messages_carry_their_receivers_pid(
    spark, graph, tmp_path, monkeypatch, backend, model_key, strat
):
    """Every stored message row — per edge, partial or broadcast — names
    in ``pid`` the worker its destinations live on, so the superstep's
    exchange can group by ``pid`` alone."""
    nodes, edges = graph
    frames = _on_stored_frames(monkeypatch, _routing)
    _infer(backend, spark, nodes, edges, _traffic_model(model_key, 2), tmp_path, strategies=strat)
    assert len(frames) == 2
    for msgs, broadcast, misrouted in frames:
        assert msgs > 0 and misrouted == 0
        assert (broadcast > 0) == strat.broadcast


@pytest.mark.parametrize("strat", [StrategyConfig.none(), BC], ids=["none", "bc"])
def test_superstep_exchange_is_keyed_by_pid(spark, graph, strat):
    """A superstep's one exchange is keyed by the stored frame's own
    ``pid`` column: no per-row key (no ``xxhash64``) is computed between
    the frame's scan and the exchange."""
    nodes, edges = graph
    model = _traffic_model("gat", 2)
    eng, out = pregel.run_gnn(nodes, edges, model, strat, RunStats("pregel"), instrument=False)
    try:
        with planned(spark):
            plan = out._jdf.queryExecution().executedPlan().toString()
    finally:
        eng.stop()
    (exchange,) = [line for line in plan.splitlines() if "Exchange" in line]
    assert "hashpartitioning(pid#" in exchange
    assert "xxhash64" not in plan


@_per_backend(
    "model_key,strat",
    [("sage", StrategyConfig.none()), ("sage", PG), ("sage", ALL), ("gat", BC), ("gat", ALL)],
    ["none", "pg", "all", "gat-bc", "gat-all"],
)
def test_frame_traffic_equals_accounting(
    spark, graph, tmp_path, monkeypatch, backend, model_key, strat
):
    """Every frame entering a superstep's exchange holds each vertex once
    — hubs' mirrors included under shadow nodes — plus exactly the
    message rows and payload floats ``count_comm`` accounts for that
    layer, and, in its broadcast rows, the destination ids
    ``RoundStats.id_rows`` counts."""
    nodes, edges = graph
    model = _traffic_model(model_key, 3)

    def traffic(f):
        msgs = f.filter(F.col("id").isNull())
        return (
            f.filter(F.col("id").isNotNull()).count(),
            msgs.count(),
            msgs.agg(F.sum(F.size("payload"))).first()[0] or 0,
            msgs.filter(F.col("adj").isNotNull()).agg(F.sum(F.size("adj"))).first()[0] or 0,
        )

    frames = _on_stored_frames(monkeypatch, traffic)
    _, stats = _infer(
        backend, spark, nodes, edges, model, tmp_path, strategies=strat, instrument=True
    )
    n = nodes.count()
    mirrors = 0
    if strat.shadow_nodes:  # a hub of out-degree d has ceil(d / threshold) - 1 mirrors
        thr = shadow_threshold(edges.count(), N_WORKERS)
        deg = edges.groupBy("src").count()
        mirrors = deg.select(F.sum(F.ceil(F.col("count") / thr) - 1)).first()[0]
        assert mirrors > 0
    expected = [(n + mirrors, r.msg_rows, r.msg_floats, r.id_rows) for r in stats.rounds]
    assert frames == expected


def _model(key, d):
    return build_sage(d, 8, 3, seed=4) if key == "sage" else build_gat(d, 8, 3, heads=2, seed=4)


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
    model = _model(model_key, d)
    result, _ = _infer(backend, spark, nodes, edges, model, tmp_path, strategies=strat)
    pdf = result.toPandas().sort_values("id")
    assert pdf["id"].tolist() == list(range(n))
    ref = forward_full(model, LocalGraph.from_spark(nodes, edges))
    np.testing.assert_allclose(np.stack(pdf["logits"].to_numpy()), ref, atol=1e-8)


@pytest.mark.parametrize("model_key", ["sage", "gat"])
@_per_backend("strat", [StrategyConfig.none(), ALL], ["none", "all"])
def test_zero_node_graph(spark, tmp_path, backend, model_key, strat):
    nodes = spark.createDataFrame([], "id long, feat array<double>")
    edges = spark.createDataFrame([], "src long, dst long")
    model = _model(model_key, 6)
    result, _ = _infer(backend, spark, nodes, edges, model, tmp_path, strategies=strat)
    assert result.columns == ["id", "logits", "pred"]
    assert result.count() == 0


# node 0 sends to every node and so is a hub under all(): the threshold is
# 1 at this size; its ids are relabelled per case
_HUB_SRC = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 0]
_HUB_DST = [1, 2, 3, 4, 5, 0, 0, 4, 3, 0, 1, 0]
ID_CASES = {
    "ids_above_2^40": lambda i: i + (1 << 40),
    "ids_near_int64_max": lambda i: i + (1 << 62),
    "negative_hub_id": lambda i: np.where(i == 0, -3, i),
}


@pytest.mark.parametrize("case", list(ID_CASES))
@pytest.mark.parametrize("model_key", ["sage", "gat"])
@pytest.mark.parametrize("backend", ["pregel", "mr"])
def test_node_ids_under_shadow_nodes(spark, tmp_path, monkeypatch, backend, model_key, case):
    """Mirror ids come from above the largest id, so any int64 ids work:
    every node comes back exactly once, with the logits of the same graph
    labelled 0..n-1, and every message, partial (SAGE) or broadcast (GAT),
    names the worker of its destinations."""
    n, d = 6, 5
    relabel = ID_CASES[case]
    feat = np.random.default_rng(3).standard_normal((n, d))
    ids = relabel(np.arange(n)).astype("int64")
    nodes = spark.createDataFrame(pd.DataFrame({"id": ids, "feat": list(feat)}))
    edges = spark.createDataFrame(
        pd.DataFrame(
            {"src": relabel(np.array(_HUB_SRC)), "dst": relabel(np.array(_HUB_DST))}
        ).astype("int64")
    )
    model = _model(model_key, d)
    frames = _on_stored_frames(monkeypatch, _routing)
    result, _ = _infer(backend, spark, nodes, edges, model, tmp_path, strategies=ALL)
    assert [(m > 0, b > 0, bad) for m, b, bad in frames] == [(True, model_key == "gat", 0)] * 2
    pdf = result.toPandas().sort_values("id")
    assert pdf["id"].tolist() == sorted(ids.tolist())
    ref = forward_full(model, LocalGraph(feat=feat, src=_HUB_SRC, dst=_HUB_DST))
    np.testing.assert_allclose(
        np.stack(pdf["logits"].to_numpy()), ref[np.argsort(ids)], atol=1e-8
    )


def test_mirror_ids_overflowing_int64_are_refused(spark):
    """A hub whose mirrors would need ids past int64's largest value fails
    at entry with a clear error."""
    top = (1 << 63) - 1
    nodes = spark.createDataFrame(
        pd.DataFrame({"id": np.array([0, top], "int64"), "feat": list(np.eye(2))})
    )
    edges = spark.createDataFrame(
        pd.DataFrame({"src": np.array([0, 0], "int64"), "dst": np.array([0, top], "int64")})
    )
    with pytest.raises(ValueError, match="int64"):
        infer_pregel(spark, nodes, edges, build_sage(2, 4, 2, seed=1), strategies=ALL)
