"""Communication accounting for §IV-D strategies: partial-gather and
broadcast must *reduce* measured traffic, with counts cross-checked
against DuckDB SQL (worker assignment exported as a column so the oracle
can reproduce the math)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.backends.common import N_WORKERS, count_comm, worker_of
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_sage
from repro.graphs.generators import power_law_graph
from repro.oracle import assert_equivalent
from repro.strategies import StrategyConfig


@pytest.fixture(scope="module")
def in_skewed(spark):
    return power_law_graph(
        spark, n_nodes=500, avg_degree=8, skew="in", alpha=1.3, feat_dim=6, seed=21
    )


@pytest.fixture(scope="module")
def out_skewed(spark):
    return power_law_graph(
        spark, n_nodes=500, avg_degree=8, skew="out", alpha=1.3, feat_dim=6, seed=22
    )


@pytest.fixture(scope="module")
def model():
    return build_sage(6, 10, 4, seed=1)


def _run_counts(spark, nodes, edges, model, tmp_path, name, **strat):
    _, stats = infer_mr(
        spark,
        nodes,
        edges,
        model,
        workdir=tmp_path / name,
        strategies=StrategyConfig(**strat),
        instrument=True,
    )
    return stats


def test_partial_gather_reduces_messages(spark, in_skewed, model, tmp_path):
    nodes, edges = in_skewed
    base = _run_counts(spark, nodes, edges, model, tmp_path, "base")
    pg = _run_counts(spark, nodes, edges, model, tmp_path, "pg", partial_gather=True)
    assert pg.total_msg_rows < base.total_msg_rows
    # paper: per-node receive complexity drops to <= n_workers
    assert pg.total_msg_rows <= model.n_layers * N_WORKERS * nodes.count()


def test_broadcast_reduces_bytes_on_out_skew(spark, out_skewed, model, tmp_path):
    nodes, edges = out_skewed
    base = _run_counts(spark, nodes, edges, model, tmp_path, "base")
    bc = _run_counts(spark, nodes, edges, model, tmp_path, "bc", broadcast=True)
    assert bc.total_msg_bytes < base.total_msg_bytes


def test_baseline_message_count_equals_edges(spark, in_skewed, model, tmp_path):
    """Without strategies, one message per edge per layer."""
    nodes, edges = in_skewed
    base = _run_counts(spark, nodes, edges, model, tmp_path, "base")
    e = edges.count()
    assert base.total_msg_rows == model.n_layers * e


@pytest.mark.parametrize(
    "strat",
    [
        StrategyConfig.none(),
        StrategyConfig(partial_gather=True),
        StrategyConfig(broadcast=True),
        StrategyConfig.all(),
    ],
    ids=["none", "pg", "bc", "all"],
)
def test_pregel_and_mr_account_the_same_traffic(spark, in_skewed, model, tmp_path, strat):
    nodes, edges = in_skewed
    _, mr = infer_mr(
        spark, nodes, edges, model, workdir=tmp_path, strategies=strat, instrument=True
    )
    _, pregel = infer_pregel(spark, nodes, edges, model, strategies=strat, instrument=True)
    assert pregel.total_msg_rows == mr.total_msg_rows
    assert pregel.total_msg_bytes == mr.total_msg_bytes


def test_partial_gather_count_oracle(spark, in_skewed, model):
    """Partial rows = distinct (sender worker, dst). Export the worker
    column and let DuckDB recompute the count."""
    _, edges = in_skewed
    tagged = edges.select(worker_of(F.col("src")).alias("w"), "dst")
    got = tagged.groupBy("w", "dst").agg(F.count("*").alias("cnt")).groupBy().agg(
        F.count("*").alias("partial_rows")
    )
    assert_equivalent(
        got,
        "select count(*) as partial_rows from "
        "(select w, dst from tagged group by w, dst)",
        tagged=tagged,
    )
    rows, _ = count_comm(edges, model.layers[0], partial_gather=True, broadcast=False)
    assert rows == tagged.select("w", "dst").distinct().count()


def test_broadcast_count_oracle(spark, out_skewed, model):
    """Broadcast rows = distinct (src, receiver worker); a layer's bytes =
    those rows with their payload plus the ids-only edge stream, 16 B per
    edge."""
    nodes, edges = out_skewed
    tagged = edges.select("src", worker_of(F.col("dst")).alias("w"))
    rows, _ = count_comm(edges, model.layers[0], partial_gather=False, broadcast=True)
    assert_equivalent(
        spark.createDataFrame([(rows,)], ["bcast_rows"]),
        "select count(*) as bcast_rows from (select src, w from tagged group by src, w)",
        tagged=tagged,
    )
    _, stats = infer_pregel(
        spark, nodes, edges, model, strategies=StrategyConfig(broadcast=True), instrument=True
    )
    assert_equivalent(
        spark.createDataFrame([(r.layer, r.msg_bytes) for r in stats.rounds], ["layer", "b"]),
        "select layer, "
        "(select count(*) from (select src, w from tagged group by src, w)) * (16 + 8 * dim)"
        " + (select count(*) from tagged) * 16 as b from dims",
        tagged=tagged,
        dims=pd.DataFrame({"layer": [0, 1], "dim": [layer.msg_dim for layer in model.layers]}),
    )


def test_tail_worker_io_shrinks_with_partial_gather(spark, in_skewed, model):
    """Fig. 9/11's point: the busiest receiver worker's in-message count
    collapses once aggregation happens sender-side."""
    _, edges = in_skewed

    def per_worker_io(msgs):  # messages received per logical worker
        return msgs.groupBy(worker_of(F.col("dst"))).count().toPandas()["count"]

    base_io = per_worker_io(edges)
    combined = edges.select(worker_of(F.col("src")).alias("w"), "dst").distinct()
    pg_io = per_worker_io(combined)
    assert pg_io.max() < base_io.max()
    assert pg_io.max() / pg_io.mean() < base_io.max() / base_io.mean()
