"""The Pregel substrate validated on classic vertex programs before it
is trusted with GNNs (PageRank, SSSP), plus engine mechanics."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.backends.pregel import (
    Pregel,
    build_vertices,
    frame,
    out_messages,
    pagerank,
    sssp,
)
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph


@pytest.fixture(scope="module")
def graph(spark):
    nodes, edges = power_law_graph(
        spark, n_nodes=200, avg_degree=4, skew="both", feat_dim=4, seed=6
    )
    return nodes, edges, LocalGraph.from_spark(nodes, edges)


def _pagerank_ref(g: LocalGraph, iters: int, damping=0.85) -> np.ndarray:
    r = np.full(g.n, 1.0 / g.n)
    outdeg = np.bincount(g.src, minlength=g.n)
    for _ in range(iters):
        share = r / np.maximum(outdeg, 1)
        inc = np.zeros(g.n)
        np.add.at(inc, g.dst, share[g.src])
        r = (1 - damping) / g.n + damping * inc
    return r


@pytest.mark.parametrize("iters", [1, 5, 10])
def test_pagerank_matches_numpy(spark, graph, iters):
    nodes, edges, g = graph
    pr = pagerank(spark, nodes, edges, iterations=iters).toPandas().sort_values("id")
    ref = _pagerank_ref(g, iters)
    np.testing.assert_allclose(pr["rank"].to_numpy(), ref[pr["id"].to_numpy()], atol=1e-10)


def test_pagerank_sums_below_one(spark, graph):
    # dangling nodes leak mass; total rank must stay in (0, 1]
    nodes, edges, _ = graph
    total = pagerank(spark, nodes, edges, iterations=5).agg(F.sum("rank")).first()[0]
    assert 0 < total <= 1 + 1e-9


def _bfs_ref(g: LocalGraph, source: int) -> dict[int, int]:
    import collections

    adj = collections.defaultdict(list)
    for s, d in zip(g.src, g.dst):
        adj[int(s)].append(int(d))
    dist = {source: 0}
    q = collections.deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


@pytest.mark.parametrize("source", [0, 7])
def test_sssp_matches_bfs(spark, graph, source):
    nodes, edges, g = graph
    sp = sssp(spark, nodes, edges, source=source, max_steps=25).toPandas()
    ref = _bfs_ref(g, source)
    for _, row in sp.iterrows():
        assert row["dist"] == ref.get(row["id"], -1)


@pytest.mark.parametrize("program", ["pagerank", "sssp"])
def test_zero_node_graph(spark, program):
    nodes = spark.createDataFrame([], "id long, feat array<double>")
    edges = spark.createDataFrame([], "src long, dst long")
    if program == "pagerank":
        out = pagerank(spark, nodes, edges, iterations=2)
    else:
        out = sssp(spark, nodes, edges, source=0, max_steps=2)
    assert out.columns == ["id", "rank" if program == "pagerank" else "dist"]
    assert out.count() == 0


def test_build_vertices_adjacency(spark, graph):
    nodes, edges, g = graph
    verts = build_vertices(nodes, edges)
    pdf = verts.toPandas().set_index("id")
    out_deg = np.bincount(g.src, minlength=g.n)
    for v in [0, 1, 5, 100]:
        assert len(pdf.loc[v, "adj"]) == out_deg[v]
    assert (pdf["pid"] >= 0).all() and (pdf["pid"] < 16).all()


def _messages_rows(eng) -> int:
    return eng.frame.filter(F.col("dst").isNotNull()).count()


def test_vertices_preserved_across_supersteps(spark, graph):
    """compute() returning states untouched must keep the vertex set."""
    nodes, edges, _ = graph
    eng = Pregel(build_vertices(nodes, edges), lambda v: out_messages(v, v["h"]))
    before = eng.vertices.count()

    def compute(step, verts, msgs):
        return frame(verts)

    eng.superstep(0, compute)
    assert eng.vertices.count() == before
    assert _messages_rows(eng) == 0
    eng.stop()


def test_scatter_emits_one_message_per_edge(spark, graph):
    nodes, edges, _ = graph
    eng = Pregel(build_vertices(nodes, edges), lambda v: out_messages(v, v["h"]))
    assert _messages_rows(eng) == edges.count()
    eng.stop()
