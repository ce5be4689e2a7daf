"""Shadow-nodes preprocessing (paper §IV-D-c).

A node whose out-degree exceeds a threshold is split into ``n`` copies,
itself and ``n - 1`` mirrors. Each copy keeps an even 1/n share of the
out-edges (so the scatter-side communication load is spread over
machines) and **all** in-edges of the original (so every copy computes
the identical state each layer).

The decision and the rewrite both work on the engine's vertex rows
``(id, pid, adj, h)``. The threshold is the paper's heuristic
``λ · E / W`` (:func:`shadow_threshold`, λ = 0.1), E being the rows'
out-edges Σ ``size(adj)``. The hubs and their mirror ids are few (under
``2E / threshold``), so they travel into one projection as a literal
map. Mirror ids start one above the largest node id, at the *floor*;
rows below it are the original nodes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType

from repro.backends.common import N_WORKERS, planned, worker_of

LAMBDA = 0.1


def shadow_threshold(n_edges: int, n_workers: int) -> int:
    """The paper's hub threshold ``λ · n_edges / n_workers``, at least 1."""
    return max(1, int(LAMBDA * n_edges / n_workers))


def apply_shadow_nodes(vertices: DataFrame) -> tuple[DataFrame, int, int | None, int]:
    """Split each vertex row with ``size(adj) > threshold`` (a hub) into
    ``ceil(size(adj) / threshold)`` copies: the hub's id, then its mirror
    ids, each with the hub's ``h``, ``pid = worker(id)`` and a round-robin
    share of the sorted adjacency. Every ``adj`` entry pointing at a hub
    expands to all of its copies, so each mirror gets all in-edges.

    E with the largest id, then the hubs, are two queries over ``vertices``
    (store them first if costly), each planned as one Spark job
    (:func:`~repro.backends.common.planned`). Returns ``(rows, n_hubs, floor,
    threshold)``, mirror ids being ``floor, floor + 1, …``; with no hub,
    ``(vertices, 0, None, threshold)``. Raises ``ValueError`` if a mirror
    id would not fit in int64, or naming a hub that two rows hold.
    """
    deg = F.size("adj")
    with planned(vertices.sparkSession):
        n_edges, max_id = vertices.agg(F.sum(deg), F.max("id")).first()
        threshold = shadow_threshold(n_edges or 0, N_WORKERS)
        hubs = vertices.filter(deg > threshold).select("id", deg).collect()
    if not hubs:
        return vertices, 0, None, threshold
    floor = next_id = max_id + 1
    copies = {}
    for hub, d in sorted(hubs):
        if hub in copies:  # else its mirrors, not it, would be duplicated
            raise ValueError(f"duplicate node id {hub}")
        n = -(-d // threshold)
        copies[hub] = [hub, *range(next_id, next_id + n - 1)]
        next_id += n - 1
    if next_id > 1 << 63:
        raise ValueError(f"shadow nodes: mirror ids {floor}..{next_id - 1} overflow int64")

    table = F.map_from_arrays(
        F.lit(list(copies)).cast(ArrayType(LongType())),
        F.lit(list(copies.values())).cast(ArrayType(ArrayType(LongType()))),
    )

    def copies_of(col):
        return F.coalesce(F.try_element_at(table, col), F.array(col))

    own = copies_of(F.col("id"))
    rows = vertices.select(
        F.posexplode(own).alias("g", "copy"),
        F.size(own).alias("n"),
        F.flatten(F.transform("adj", copies_of)).alias("sends"),
        "h",
    ).select(
        F.col("copy").alias("id"),
        worker_of(F.col("copy")).alias("pid"),
        F.filter(F.sort_array("sends"), lambda _, i: i % F.col("n") == F.col("g")).alias("adj"),
        "h",
    )
    return rows, len(copies), floor, threshold
