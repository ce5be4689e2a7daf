"""Inference runs leave the caller's files alone, release what they
create when they fail (Parquet rounds) or finish (resident vertex state,
the vertex rows a shadow-nodes load holds, the k-hop baseline's
neighborhoods), and leave the session's planner settings as they found
them either way."""
import pytest

from repro.backends.khop import KhopBudgetExceeded, infer_khop
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_sage
from repro.graphs.generators import power_law_graph
from repro.strategies import StrategyConfig

ALL = StrategyConfig.all()


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, n_nodes=80, avg_degree=4, feat_dim=6, seed=9)


def _persistent_rdds(spark) -> set:
    return set(dict(spark.sparkContext._jsc.getPersistentRDDs()).keys())


def _planner_settings(spark) -> dict:
    keys = ("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions")
    return {key: spark.conf.get(key) for key in keys}


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
    before = set(tmp_path.iterdir()), _persistent_rdds(spark), _planner_settings(spark)
    with pytest.raises(Exception, match="width 6 where width 7 is expected"):
        _run(backend, spark, nodes, edges, model, tmp_path, strat)
    assert set(tmp_path.iterdir()) == before[0]
    assert _persistent_rdds(spark) <= before[1]
    assert _planner_settings(spark) == before[2]


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
