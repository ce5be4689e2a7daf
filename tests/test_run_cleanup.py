"""Inference runs leave the caller's files alone, release what they
create when they fail (Parquet rounds) or finish (resident vertex state,
the vertex rows a shadow-nodes load holds, the k-hop baseline's
neighborhoods), and leave the session's planner settings as they found
them either way. Inputs off the contract fail loudly, naming the id at
fault."""
import numpy as np
import pandas as pd
import pytest

from repro.backends.khop import KhopBudgetExceeded, infer_khop
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_gat, build_sage
from repro.core.sage import SAGEConv
from repro.graphs.generators import power_law_graph
from repro.strategies import StrategyConfig

ALL = StrategyConfig.all()
BOTH = pytest.mark.parametrize(
    "backend,strat",
    [
        pytest.param(b, s, id=f"{b}-all" if s.shadow_nodes else b)
        for s in (StrategyConfig.none(), ALL)
        for b in ("mr", "pregel")
    ],
)


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, n_nodes=80, avg_degree=4, feat_dim=6, seed=9)


def _persistent_rdds(spark) -> set:
    return set(dict(spark.sparkContext._jsc.getPersistentRDDs()).keys())


def _planner_settings(spark) -> dict:
    keys = ("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions")
    return {key: spark.conf.get(key) for key in keys}


def _found(spark, workdir) -> tuple:
    return set(workdir.iterdir()), _persistent_rdds(spark), _planner_settings(spark)


def _assert_as_found(spark, workdir, found) -> None:
    """No file added to ``workdir``, no RDD left persistent, and the
    planner settings as ``found``."""
    assert set(workdir.iterdir()) == found[0]
    assert _persistent_rdds(spark) <= found[1]
    assert _planner_settings(spark) == found[2]


def _run(backend, spark, nodes, edges, model, workdir, strat=StrategyConfig.none()):
    if backend == "mr":
        return infer_mr(spark, nodes, edges, model, workdir=workdir, strategies=strat)
    if backend == "khop":
        return infer_khop(spark, nodes, edges, model, fanout=3)
    return infer_pregel(spark, nodes, edges, model, strategies=strat)


def test_mr_keeps_callers_files(spark, graph, tmp_path):
    nodes, edges = graph
    sentinel = tmp_path / "keep.txt"
    sentinel.write_text("mine")
    settings = _planner_settings(spark)
    for _ in range(2):
        result, _ = infer_mr(spark, nodes, edges, build_sage(6, 10, 4), workdir=tmp_path)
        assert result.count() == nodes.count()
    assert sentinel.read_text() == "mine"
    assert _planner_settings(spark) == settings
    runs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(runs) == 2  # one subdirectory per run, each with its rounds
    for run in runs:
        assert (run / "state_1.parquet").is_dir() and (run / "state_2.parquet").is_dir()


@pytest.mark.parametrize(
    "backend,strat",
    [
        *(pytest.param(b, StrategyConfig.none(), id=b) for b in ("mr", "pregel", "khop")),
        *(pytest.param(b, ALL, id=f"{b}-all") for b in ("mr", "pregel")),
    ],
)
def test_failed_run_leaves_nothing_behind(spark, graph, tmp_path, backend, strat):
    nodes, edges = graph  # 6-wide features
    model = build_sage(7, 10, 4)
    before = _found(spark, tmp_path)
    with pytest.raises(Exception, match="width 6 where width 7 is expected"):
        _run(backend, spark, nodes, edges, model, tmp_path, strat)
    _assert_as_found(spark, tmp_path, before)


class FailingSAGE(SAGEConv):
    """SAGE-mean whose update fails."""

    def apply_node(self, h_self, aggr):
        raise RuntimeError("apply_node failed")


@pytest.mark.parametrize("failing", [0, 1], ids=["first-superstep", "last-superstep"])
@BOTH
def test_failed_superstep_leaves_nothing_behind(spark, graph, tmp_path, backend, strat, failing):
    """A run that fails after its load — in a superstep that stores its
    frame, or in the last one — leaves no files, no persistent RDD and the
    planner settings as found."""
    nodes, edges = graph
    model = build_sage(6, 10, 4)
    layer = model.layers[failing]
    model.layers[failing] = FailingSAGE(layer.in_dim, layer.out_dim)
    before = _found(spark, tmp_path)
    with pytest.raises(Exception, match="apply_node failed"):
        _run(backend, spark, nodes, edges, model, tmp_path, strat)
    _assert_as_found(spark, tmp_path, before)


# each fault on a 10-node ring, and the error that names it
FAULTS = {
    "duplicate_id": "duplicate node id 3",
    "unknown_src": "node id 99 has no features",
    "unknown_dst": "message to unknown node id 99",
}


def _faulty_ring(spark, fault):
    ids = np.arange(10)
    src, dst = ids, np.roll(ids, 1)
    if fault == "duplicate_id":
        ids = np.r_[ids, 3]
    elif fault == "unknown_src":
        src, dst = np.r_[src, 99], np.r_[dst, 0]
    else:
        src, dst = np.r_[src, 0], np.r_[dst, 99]
    feat = np.random.default_rng(2).standard_normal((len(ids), 6))
    nodes = spark.createDataFrame(pd.DataFrame({"id": ids, "feat": list(feat)}))
    edges = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}), "src long, dst long")
    return nodes, edges


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("model_key", ["sage", "gat"])
@BOTH
def test_bad_input_fails_naming_the_id(spark, tmp_path, backend, strat, model_key, fault):
    """A duplicated node id, an edge from an unknown ``src`` and one to
    an unknown ``dst`` each raise a ``ValueError`` naming the id, and the
    run leaves nothing behind."""
    nodes, edges = _faulty_ring(spark, fault)
    model = build_sage(6, 10, 4) if model_key == "sage" else build_gat(6, 10, 4, heads=2)
    before = _found(spark, tmp_path)
    with pytest.raises(Exception, match=FAULTS[fault]) as err:
        _run(backend, spark, nodes, edges, model, tmp_path, strat)
    assert err.type is ValueError or f"ValueError: {FAULTS[fault]}" in str(err.value)
    _assert_as_found(spark, tmp_path, before)


def test_pregel_releases_vertex_state(spark, graph):
    nodes, edges = graph
    before, settings = _persistent_rdds(spark), _planner_settings(spark)
    for strat in (StrategyConfig.none(), ALL):
        result, _ = infer_pregel(spark, nodes, edges, build_sage(6, 10, 4), strategies=strat)
        assert result.count() == nodes.count()
        assert _planner_settings(spark) == settings
    assert _persistent_rdds(spark) <= before


def test_mr_holds_nothing_after_the_load(spark, graph, tmp_path):
    """Under shadow nodes the MapReduce load holds the vertex rows in
    memory, and releases them once ``state_0`` is stored."""
    nodes, edges = graph
    before, settings = _persistent_rdds(spark), _planner_settings(spark)
    result, _ = infer_mr(
        spark, nodes, edges, build_sage(6, 10, 4), workdir=tmp_path, strategies=ALL
    )
    assert result.count() == nodes.count()
    assert _persistent_rdds(spark) <= before
    assert _planner_settings(spark) == settings


def test_khop_releases_neighborhoods(spark, graph):
    nodes, edges = graph
    model = build_sage(6, 10, 4)
    before = _persistent_rdds(spark)
    result, _ = infer_khop(spark, nodes, edges, model, fanout=3, seed=0)
    assert result.count() == nodes.count()
    with pytest.raises(KhopBudgetExceeded):
        infer_khop(spark, nodes, edges, model, fanout=3, seed=0, row_budget=10)
    assert _persistent_rdds(spark) <= before
