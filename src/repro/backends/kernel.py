"""The bucket kernel: the per-batch GAS stages both backends run.

A *bucket* is one batch of rows handed to Python by ``applyInArrow``: a
logical worker's node states and the messages to them, or the messages
one worker sends. This module is
the only code that knows how a bucket looks on the wire and in what
order it is reduced:

* **Wire format.** Messages are :data:`MSG_SCHEMA` rows ``(src, dst,
  payload)`` plus the ``pid`` of the logical worker they go to; node
  states carry ``id`` and ``h``; vectors travel as ``array<double>`` and
  are read as one ``[n, d]`` matrix with :func:`to_matrix`, written back
  with :func:`from_matrix` — no per-row Python objects. :func:`send`
  gives every message its shape: the payload is the layer's ``scatter``
  of the sender's state, shipped per edge, as one partial per ``dst``, or
  as a broadcast message that carries, in place of a ``dst``, the list
  ``adj`` of its destinations on its ``pid``. :func:`update` fans a
  broadcast message out to one message per destination.
* **Placement.** :func:`worker` is the NumPy copy of
  :func:`repro.backends.common.worker_of`, with which a sender addresses
  each message to the worker of its destinations.
* **Reduction order.** Floating-point addition is not associative and
  SIMD matmul kernels are not bit-stable under row permutation, while a
  shuffle delivers rows in run-dependent order. Every reduction therefore
  runs over messages sorted by ``(dst, src)`` and every matrix product over
  states sorted by ``id``, which makes results bit-identical across runs
  (§V-B1's consistency, at full strength).

The per-batch functions are :func:`send` (scatter, and the sender-side
partial gather or broadcast), :func:`update` (gather → aggregate →
apply_node, the receiver side of one layer) and :func:`head` (the
prediction slice). Both :func:`send` and :func:`update` take the
layer's ``ship``, :func:`repro.backends.common.shipping`'s rule.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from repro.backends.common import N_WORKERS
from repro.core.gas import GASLayer
from repro.core.model import GNNModel

MSG_SCHEMA = StructType(
    [
        StructField("src", LongType()),
        StructField("dst", LongType()),
        StructField("payload", ArrayType(DoubleType())),
    ]
)


def head_schema(task: str) -> StructType:
    """Output rows of :func:`head` for a model's ``task``."""
    pred = LongType() if task == "multiclass" else ArrayType(LongType())
    return StructType(
        [
            StructField("id", LongType()),
            StructField("logits", ArrayType(DoubleType())),
            StructField("pred", pred),
        ]
    )


# -- wire format ---------------------------------------------------------------


def to_matrix(col: pa.ChunkedArray | pa.Array, d: int) -> np.ndarray:
    """``array<double>`` column → ``[n, d]`` float matrix.

    Raises ``ValueError`` unless every row is a list of exactly ``d``
    values.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("null vector")
    widths = np.diff(col.offsets.to_numpy())
    bad = np.flatnonzero(widths != d)
    if bad.size:
        raise ValueError(f"vector of width {widths[bad[0]]} where width {d} is expected")
    return col.flatten().to_numpy().reshape(len(col), d)


def from_matrix(m: np.ndarray) -> pa.ListArray:
    """``[n, d]`` matrix → list column, one row per matrix row."""
    n, d = m.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(np.ascontiguousarray(m).ravel()))


# -- placement -------------------------------------------------------------------

_P1, _P2, _P3, _P4, _P5 = (
    np.uint64(p)
    for p in (
        0x9E3779B185EBCA87,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x85EBCA77C2B2AE63,
        0x27D4EB2F165667C5,
    )
)
_SEED = np.uint64(42)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def worker(ids: np.ndarray) -> np.ndarray:
    """Logical worker of each int64 node id: Spark's 64-bit xxHash of a
    long (seed 42) modulo :data:`N_WORKERS`, computed in wrapping uint64
    arithmetic, so it equals :func:`repro.backends.common.worker_of`."""
    x = np.asarray(ids, dtype=np.int64).view(np.uint64)
    h = _SEED + _P5 + np.uint64(8)
    h = h ^ (_rotl(x * _P2, 31) * _P1)
    h = _rotl(h, 27) * _P1 + _P4
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    # N_WORKERS divides 2**64, so the unsigned remainder is Spark's pmod
    return (h % np.uint64(N_WORKERS)).astype(np.int64)


# -- canonical order and row mapping --------------------------------------------


def order_by(tbl: pa.Table, *keys: str) -> np.ndarray:
    """Row order sorting ``tbl`` by ``keys``, the first key most significant."""
    return np.lexsort([tbl[k].to_numpy() for k in reversed(keys)])


def rows(ids: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Row of each ``dst`` in the sorted id array ``ids``.

    Raises ``ValueError`` naming the first ``dst`` that is not in ``ids``
    (a message to a node the bucket does not hold).
    """
    pos = np.searchsorted(ids, dst)
    found = pos < len(ids)
    found[found] = ids[pos[found]] == dst[found]
    if not found.all():
        raise ValueError(f"message to unknown node id {dst[~found][0]}")
    return pos


def with_state(verts: pa.Table, h: np.ndarray) -> pa.Table:
    """``verts`` with its ``h`` column replaced by the rows of ``h``."""
    return verts.set_column(verts.schema.get_field_index("h"), "h", from_matrix(h))


# -- the per-batch GAS stages ----------------------------------------------------


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each row of sorted ``keys`` starts a run of equal keys."""
    starts = np.ones(len(keys[0]), dtype=bool)
    starts[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return starts


def send(layer: GASLayer, ship: str, verts: pa.Table) -> pa.Table:
    """The messages one logical worker's ``verts`` send along their
    out-adjacency ``adj``, each sender's payload being ``layer.scatter``
    of its ``h``, shaped as ``ship`` (:func:`repro.backends.common.shipping`)
    rules, and each addressed, in ``pid``, to the worker of its destinations:

    * ``"edge"`` — one message per out-edge;
    * ``"partial"`` — one lifted partial per ``dst``, its ``src`` the
      senders' ``pid``;
    * ``"broadcast"`` — one message per ``(id, worker(dst))``, carrying the
      payload once and, as ``adj``, its destinations on that worker.

    Raises ``ValueError`` naming a sender without a state ``h``, as the
    ``src`` of an edge from no node is.
    """
    if verts["h"].null_count:
        unknown = verts["id"].filter(pc.is_null(verts["h"]))[0].as_py()
        raise ValueError(f"node id {unknown} has no features: an edge from an unknown node?")
    adj = verts["adj"].combine_chunks()
    row = pc.list_parent_indices(adj).to_numpy()
    dst = pc.list_flatten(adj).to_numpy()
    payload = layer.scatter(to_matrix(verts["h"], layer.in_dim))
    w = worker(dst)
    if ship == "broadcast":
        order = np.lexsort((w, row))
        row, dst, w = row[order], dst[order], w[order]
        first = np.flatnonzero(_starts(row, w))
        row = row[first]
        offsets = pa.array(np.append(first, len(order)).astype(np.int32))
        return pa.table(
            {
                "src": verts["id"].take(row),
                "pid": w[first],
                "payload": from_matrix(payload[row]),
                "adj": pa.ListArray.from_arrays(offsets, pa.array(dst)),
            }
        )
    src = verts["id"].to_numpy()[row]
    if ship == "edge":
        return pa.table({"src": src, "dst": dst, "pid": w, "payload": from_matrix(payload[row])})
    order = np.lexsort((src, dst))
    row, dst, w = row[order], dst[order], w[order]
    starts = _starts(dst)
    seg, n = np.cumsum(starts) - 1, int(starts.sum())
    partials = layer.aggregator.lift_segments(payload[row], seg, n)
    return pa.table(
        {
            "src": verts["pid"].to_numpy()[row[starts]],
            "dst": dst[starts],
            "pid": w[starts],
            "payload": from_matrix(partials),
        }
    )


def _fan_out(msgs: pa.Table) -> pa.Table:
    """Broadcast messages → one ``(src, dst, row)`` per destination in
    their ``adj``, ``row`` being the message that carries its payload."""
    adj = msgs["adj"].combine_chunks()
    row = pc.list_parent_indices(adj)
    return pa.table({"src": msgs["src"].take(row), "dst": pc.list_flatten(adj), "row": row})


def update(layer: GASLayer, ship: str, verts: pa.Table, msgs: pa.Table) -> pa.Table:
    """One layer's receiver side over a bucket of nodes and the messages
    :func:`send` shaped as ``ship`` rules for them.

    ``verts`` holds ``id``, ``h`` and any columns to pass through.
    Broadcast messages are fanned out to one per destination first.
    Partial layers reduce (lift per-edge payloads, or merge partials),
    finalize and ``apply_node``; a node without messages gets a zero
    aggregate. Union layers hand every message to ``apply_node_union``.
    Returns ``verts`` sorted by id with ``h`` replaced by the new state.
    Raises ``ValueError`` naming an id that ``verts`` holds twice.
    """
    verts = verts.take(order_by(verts, "id"))
    ids = verts["id"].to_numpy()
    once = _starts(ids)
    if not once.all():
        raise ValueError(f"duplicate node id {ids[~once][0]}")
    h = to_matrix(verts["h"], layer.in_dim)
    payload = msgs["payload"]
    if ship == "broadcast":
        msgs = _fan_out(msgs)
    order = order_by(msgs, "dst", "src")
    seg = rows(ids, msgs["dst"].to_numpy()[order])
    if ship == "broadcast":  # payload rows, in the same order
        order = msgs["row"].to_numpy()[order]
    if not layer.partial:
        vals = to_matrix(payload, layer.msg_dim)[order]
        return with_state(verts, layer.apply_node_union(h, vals, seg))
    agg = layer.aggregator
    if ship == "partial":
        vals = to_matrix(payload, agg.partial_dim)[order]
        partials = agg.merge_segments(vals, seg, len(ids))
    else:
        vals = to_matrix(payload, agg.dim)[order]
        partials = agg.lift_segments(vals, seg, len(ids))
    # finalize maps the empty partial of a node without messages to zeros
    return with_state(verts, layer.apply_node(h, agg.finalize(partials)))


def head(model: GNNModel, tbl: pa.Table) -> pa.Table:
    """The prediction slice over a bucket of final states → ``(id, logits,
    pred)``, rows sorted by id."""
    tbl = tbl.take(order_by(tbl, "id"))
    w, b = model.head.params["w"].data, model.head.params["b"].data
    logits = to_matrix(tbl["h"], w.shape[0]) @ w + b
    pred = model.predict(logits)
    return pa.table(
        {
            "id": tbl["id"],
            "logits": from_matrix(logits),
            "pred": pred if pred.ndim == 1 else from_matrix(pred),
        }
    )
