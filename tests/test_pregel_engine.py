"""Engine mechanics of the Pregel substrate: how vertices are built, what
loading sends, and how supersteps keep the vertex set and release the
frames they replace. The GNN vertex program on it is tested against the
reference forward pass in ``test_backends_equivalence.py``."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.backends import kernel
from repro.backends.pregel import Pregel, build_vertices, frame
from repro.core.gas import GASLayer
from repro.graphs.generators import power_law_graph
from repro.graphs.local import LocalGraph


@pytest.fixture(scope="module")
def graph(spark):
    nodes, edges = power_law_graph(
        spark, n_nodes=200, avg_degree=4, skew="both", feat_dim=4, seed=6
    )
    return nodes, edges, LocalGraph.from_spark(nodes, edges)


def test_build_vertices_adjacency(spark, graph):
    nodes, edges, g = graph
    verts = build_vertices(nodes, edges)
    pdf = verts.toPandas().set_index("id")
    out_deg = np.bincount(g.src, minlength=g.n)
    for v in [0, 1, 5, 100]:
        assert len(pdf.loc[v, "adj"]) == out_deg[v]
    assert (pdf["pid"] >= 0).all() and (pdf["pid"] < 16).all()


def _send(verts):
    """One message per out-edge, carrying the sender's state."""
    return kernel.send(GASLayer(4, 4), "edge", verts)


def _vertex_ids(eng) -> list[int]:
    return sorted(r.id for r in eng.frame.filter(F.col("id").isNotNull()).select("id").collect())


def _messages_rows(eng) -> int:
    return eng.frame.filter(F.col("dst").isNotNull()).count()


def _persistent_rdds(spark) -> set:
    return set(dict(spark.sparkContext._jsc.getPersistentRDDs()).keys())


@pytest.mark.parametrize("steps", [1, 25])
def test_vertices_preserved_across_supersteps(spark, graph, steps):
    """compute() returning states untouched must keep the vertex set, and
    each superstep must release the frame it replaces."""
    nodes, edges, _ = graph

    def compute(step, verts, msgs):
        return frame(verts, _send(verts) if step + 1 < steps else None)

    before = _persistent_rdds(spark)
    eng = Pregel(build_vertices(nodes, edges), _send)
    ids = _vertex_ids(eng)
    assert len(ids) == len(set(ids)) == nodes.count()
    for step in range(steps):
        eng.superstep(step, compute)
        assert len(_persistent_rdds(spark) - before) <= 1
    assert _vertex_ids(eng) == ids
    assert _messages_rows(eng) == 0
    eng.stop()
    assert _persistent_rdds(spark) <= before


def test_scatter_emits_one_message_per_edge(spark, graph):
    nodes, edges, _ = graph
    eng = Pregel(build_vertices(nodes, edges), _send)
    assert _messages_rows(eng) == edges.count()
    eng.stop()
