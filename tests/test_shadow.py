"""Shadow-nodes preprocessing: hub splitting is load-balancing without
changing semantics (paper §IV-D-c). The rewrite works on the engine's
vertex rows ``(id, pid, adj, h)``; rows with ``id < floor`` are the
original nodes, the rest mirrors."""
import pytest
from pyspark.sql import functions as F

from repro.backends.common import N_WORKERS, worker_of
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import build_vertices
from repro.core.model import build_sage
from repro.graphs.generators import power_law_graph
from repro.graphs.shadow import apply_shadow_nodes, shadow_threshold
from repro.oracle import assert_equivalent
from repro.strategies import StrategyConfig


@pytest.fixture(scope="module")
def skewed(spark):
    """Out-degree-skewed graph with real hubs, as vertex rows."""
    nodes, edges = power_law_graph(
        spark, n_nodes=800, avg_degree=6, skew="out", alpha=1.4, feat_dim=4, seed=2
    )
    return nodes, edges, build_vertices(nodes, edges)


@pytest.fixture(scope="module")
def shadowed(spark, skewed):
    _, edges, verts = skewed
    rows, n_hubs, floor, thr = apply_shadow_nodes(verts)
    return edges, verts, rows, n_hubs, floor, thr, _copies(spark, verts, floor, thr)


def _copies(spark, verts, floor, thr):
    """``(orig, copy)`` for every hub copy, mirrors allocated as documented:
    hubs in id order, ``ceil(d / thr) - 1`` consecutive ids each from
    ``floor``; every other node is its own only copy."""
    pairs, nxt = [], floor
    for hub, d in sorted(verts.filter(F.size("adj") > thr).select("id", F.size("adj")).collect()):
        n = -(-d // thr)
        pairs += [(hub, hub), *((hub, m) for m in range(nxt, nxt + n - 1))]
        nxt += n - 1
    hubs = spark.createDataFrame(pairs, "orig long, copy long")
    others = verts.select(F.col("id").alias("orig"), F.col("id").alias("copy")).join(
        hubs, "orig", "left_anti"
    )
    return hubs.unionByName(others)


def _sent(rows):
    return rows.select(F.col("id").alias("src"), F.explode("adj").alias("dst"))


def test_threshold_heuristic():
    # paper: threshold = lambda * total_edges / total_workers, lambda=0.1
    assert shadow_threshold(1_000_000_000, 1000) == 100_000
    assert shadow_threshold(10, 1000) == 1  # floor at 1


def test_hubs_detected(shadowed):
    """The rewrite decides the paper's threshold from its rows' edges,
    and the hubs from the edges' out-degrees."""
    edges, verts, rows, n_hubs, floor, thr, _ = shadowed
    assert thr == shadow_threshold(edges.count(), N_WORKERS)
    deg = edges.groupBy("src").count()
    assert n_hubs == deg.filter(F.col("count") > thr).count() and n_hubs > 0
    assert floor == verts.agg(F.max("id")).first()[0] + 1
    # a hub of out-degree d has ceil(d / thr) copies, itself included
    want = deg.select(F.sum(F.ceil(F.col("count") / thr) - 1)).first()[0]
    assert rows.filter(F.col("id") >= floor).count() == want


def test_mirror_out_degree_bounded(shadowed):
    """Each row keeps <= threshold out-edges toward original
    destinations. (Copies of in-edges toward mirrors add out-edges to hub
    *senders* — the paper's acknowledged overhead — so they are excluded
    from the bound.)"""
    _, _, rows, _, floor, thr, _ = shadowed
    kept = F.size(F.filter("adj", lambda d: d < floor))
    assert rows.agg(F.max(kept)).first()[0] <= thr


def test_total_out_edges_preserved(shadowed):
    """Splitting only redistributes original out-edges over mirrors."""
    edges, _, rows, _, floor, _, _ = shadowed
    assert _sent(rows).filter(F.col("dst") < floor).count() == edges.count()


def test_out_edge_multiset_preserved_oracle(shadowed):
    """Folding mirror ids back onto their hubs must give exactly the
    original edges."""
    edges, _, rows, _, floor, _, copies = shadowed
    folded = (
        _sent(rows)
        .filter(F.col("dst") < floor)
        .join(copies.withColumnRenamed("copy", "src"), "src")
        .select(F.col("orig").alias("src"), "dst")
    )
    assert_equivalent(
        folded.groupBy("src", "dst").agg(F.count("*").alias("cnt")),
        "select src, dst, count(*) as cnt from edges group by src, dst",
        edges=edges,
    )


def test_mirrors_have_all_in_edges(shadowed):
    """Every sender to a hub also sends to each of its mirrors (a hub's
    own copies count as one sender)."""
    _, _, rows, _, floor, _, copies = shadowed
    sender = copies.select(F.col("copy").alias("src"), F.col("orig").alias("sender"))
    sent = _sent(rows).join(sender, "src").select("sender", "dst")
    mirrors = copies.filter(F.col("copy") >= floor)
    to_hub = sent.join(mirrors, sent.dst == mirrors.orig).select("sender", "copy")
    to_mirror = sent.join(mirrors, sent.dst == mirrors.copy).select("sender", "copy")
    assert to_hub.count() > 0
    assert to_hub.exceptAll(to_mirror).count() == 0
    assert to_mirror.exceptAll(to_hub).count() == 0


def test_mirror_nodes_copy_features(shadowed):
    """Each copy carries its hub's ``h`` and lives on its own worker."""
    _, verts, rows, _, _, _, copies = shadowed
    got = rows.join(copies.withColumnRenamed("copy", "id"), "id").select(
        "orig", F.col("h").alias("got"), "pid", "id"
    )
    assert got.count() == rows.count()
    joined = got.join(verts.select(F.col("id").alias("orig"), "h"), "orig")
    assert joined.filter(F.col("got") != F.col("h")).count() == 0
    assert joined.filter(F.col("pid") != worker_of(F.col("id"))).count() == 0


def test_noop_when_no_hubs(spark):
    """On a directed ring every out-degree is 1, so no node is a hub."""
    ring = spark.range(100)
    nodes = ring.select("id", F.array(F.lit(0.0)).alias("feat"))
    edges = ring.select(F.col("id").alias("src"), ((F.col("id") + 1) % 100).alias("dst"))
    verts = build_vertices(nodes, edges)
    rows, n_hubs, floor, thr = apply_shadow_nodes(verts)
    assert thr == shadow_threshold(100, N_WORKERS) and n_hubs == 0 and floor is None
    assert rows is verts


def test_drop_mirrors(spark, skewed, tmp_path):
    """Inference drops the mirrors once, in the last layer: MapReduce's
    final frame and its result hold the original nodes alone."""
    nodes, edges, _ = skewed
    model = build_sage(4, 8, 3, seed=1)
    result, _ = infer_mr(
        spark, nodes, edges, model, workdir=tmp_path, strategies=StrategyConfig.all()
    )
    (run,) = tmp_path.iterdir()
    final = spark.read.parquet(str(run / f"state_{model.n_layers}.parquet"))
    n = nodes.count()
    assert final.filter(F.col("id").isNotNull()).count() == n
    assert result.count() == n
