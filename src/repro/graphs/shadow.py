"""Shadow-nodes preprocessing (paper §IV-D-c).

A node whose out-degree exceeds a threshold is split into ``n`` copies,
itself and ``n - 1`` mirrors. Each copy keeps an even 1/n share of the
out-edges (so the scatter-side communication load is spread over
machines) and **all** in-edges of the original (so every copy computes
the identical state each layer).

The rewrite works on the engine's vertex rows ``(id, pid, adj, h)``, in
one projection: the hubs and their mirror ids are few (under
``2E / threshold``), so they travel into it as a literal map. Mirror ids
start one above the largest node id, at the *floor*; rows below it are
the original nodes.

``shadow_threshold`` implements the paper's heuristic
``threshold = λ · total_edges / total_workers`` with λ = 0.1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType

from repro.backends.common import worker_of

DEFAULT_LAMBDA = 0.1


def shadow_threshold(n_edges: int, n_workers: int, lam: float = DEFAULT_LAMBDA) -> int:
    """The paper's heuristic hub threshold (at least 1)."""
    return max(1, int(lam * n_edges / n_workers))


def apply_shadow_nodes(
    vertices: DataFrame, *, threshold: int
) -> tuple[DataFrame, int, int | None]:
    """Split each vertex row with ``size(adj) > threshold`` (a hub) into
    ``ceil(size(adj) / threshold)`` copies: the hub's id, then its mirror
    ids, each with the hub's ``h``, ``pid = worker(id)`` and a round-robin
    share of the sorted adjacency. Every ``adj`` entry pointing at a hub
    expands to all of its copies, so each mirror gets all in-edges.

    Returns ``(rows, n_hubs, floor)``, mirror ids being ``floor, floor +
    1, …``; with no hub, ``(vertices, 0, None)``. Raises ``ValueError`` if
    a mirror id would not fit in int64.
    """
    deg = F.size("adj")
    found = vertices.agg(
        F.max("id").alias("max_id"),
        F.collect_list(F.when(deg > threshold, F.struct("id", deg))).alias("hubs"),
    ).first()
    if not found["hubs"]:
        return vertices, 0, None
    floor = next_id = found["max_id"] + 1
    copies = {}
    for hub, d in sorted(found["hubs"]):
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
    return rows, len(copies), floor
