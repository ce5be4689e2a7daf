"""The bucket kernel on hand-built Arrow buckets: results do not depend
on the order rows arrive in, match the local forward, give nodes without
messages a zero aggregate, and reject messages to unknown nodes; the
prediction head is one affine map per node."""
import numpy as np
import pyarrow as pa
import pytest

from repro.backends import kernel
from repro.core.gat import GATConv
from repro.core.model import build_sage
from repro.core.sage import SAGEConv
from repro.nn.autodiff import Tensor

D = 6


@pytest.fixture(scope="module")
def bucket():
    """40 nodes with sparse ids and 300 edges (multi-edges included); the
    node in row 0 receives no message."""
    rng = np.random.default_rng(3)
    n, m = 40, 300
    ids = np.sort(rng.choice(1 << 40, n, replace=False)).astype(np.int64)
    x = rng.standard_normal((n, D))
    src = rng.integers(0, n, m)
    dst = rng.integers(1, n, m)
    verts = pa.table({"id": ids, "h": kernel.from_matrix(x)})
    msgs = pa.table(
        {
            "src": ids[src],
            "dst": ids[dst],
            "payload": kernel.from_matrix(x[src]),
            "wsrc": ids[src] % 4,
        }
    )
    return verts, msgs, x, src, dst


def _shuffled(tbl: pa.Table, seed: int) -> pa.Table:
    return tbl.take(np.random.default_rng(seed).permutation(tbl.num_rows))


def _update(layer, verts, msgs, *, merged, seed=None):
    """update() on raw messages, or on their partials when ``merged``; with
    ``seed``, on the bucket's rows in a random order."""
    if merged:
        msgs = kernel.combine(layer.aggregator, msgs)
    if seed is not None:
        verts, msgs = _shuffled(verts, seed), _shuffled(msgs, seed + 10)
    return kernel.update(layer, verts, msgs, combined=merged)


def _assert_same(a: pa.Table, b: pa.Table, cols) -> None:
    for c in cols:
        if pa.types.is_list(a.schema.field(c).type):
            np.testing.assert_array_equal(
                kernel.to_matrix(a[c], len(a[c][0])), kernel.to_matrix(b[c], len(b[c][0]))
            )
        else:
            np.testing.assert_array_equal(a[c].to_numpy(), b[c].to_numpy())


LAYERS = {
    "sage-lifted": (lambda: SAGEConv(D, 8, agg="mean"), False),
    "sage-merged": (lambda: SAGEConv(D, 8, agg="mean"), True),
    "sage_max-merged": (lambda: SAGEConv(D, 8, agg="max"), True),
    "gat": (lambda: GATConv(D, 8, heads=2), False),
}


@pytest.mark.parametrize("key", list(LAYERS))
def test_update_is_bit_identical_under_row_permutation(bucket, key):
    verts, msgs, x, src, dst = bucket
    make, merged = LAYERS[key]
    layer = make()
    want = _update(layer, verts, msgs, merged=merged)
    for seed in range(3):
        got = _update(layer, verts, msgs, merged=merged, seed=seed)
        _assert_same(got, want, ["id", "h"])
    # and equal to the local forward over the same edges
    ref = layer.forward(Tensor(x), src, dst).data
    np.testing.assert_allclose(kernel.to_matrix(want["h"], 8), ref, atol=1e-12)


@pytest.mark.parametrize("key", ["sage-lifted", "gat"])
def test_broadcast_update_is_bit_identical_to_per_edge(bucket, key):
    """Broadcast rows fanned out on receipt give the per-edge update's
    states bit for bit, in any row order."""
    verts, msgs, x, src, dst = bucket
    layer = LAYERS[key][0]()
    want = _update(layer, verts, msgs, merged=False)
    by_src = np.argsort(src, kind="stable")
    adj = pa.ListArray.from_arrays(
        pa.array(np.searchsorted(src[by_src], np.arange(len(x) + 1)).astype(np.int32)),
        pa.array(verts["id"].to_numpy()[dst[by_src]]),
    )
    sent = kernel.broadcast(verts.append_column("adj", adj))
    assert sent.num_rows < msgs.num_rows
    for seed in (None, 0, 1):
        got = sent if seed is None else _shuffled(sent, seed)
        got = kernel.update(layer, verts, got, combined=False, broadcast=True)
        _assert_same(got, want, ["id", "h"])


def test_combine_is_bit_identical_under_row_permutation(bucket):
    _, msgs, *_ = bucket
    agg = SAGEConv(D, 8, agg="mean").aggregator
    want = kernel.combine(agg, msgs)
    # one partial per (sender worker, dst)
    pairs = {(w, d) for w, d in zip(msgs["wsrc"].to_pylist(), msgs["dst"].to_pylist())}
    assert want.num_rows == len(pairs)
    for seed in range(3):
        _assert_same(kernel.combine(agg, _shuffled(msgs, seed)), want, ["src", "dst", "payload"])


@pytest.mark.parametrize("agg", ["mean", "sum", "max"])
@pytest.mark.parametrize("merged", [False, True])
def test_node_without_messages_gets_zero_aggregate(bucket, agg, merged):
    verts, msgs, x, *_ = bucket
    layer = SAGEConv(D, 8, agg=agg)
    out = _update(layer, verts, msgs, merged=merged)
    assert out["id"][0].as_py() == verts["id"][0].as_py()  # row 0 got no message
    lone = layer.apply_node(x[:1], np.zeros((1, D)))
    np.testing.assert_allclose(kernel.to_matrix(out["h"], 8)[:1], lone, atol=1e-12)


def test_unknown_destination_raises(bucket):
    verts, msgs, *_ = bucket
    stray = pa.table(
        {
            "src": [verts["id"][1].as_py()],
            "dst": [7],
            "payload": kernel.from_matrix(np.ones((1, D))),
        }
    )
    with pytest.raises(ValueError, match="unknown node id 7"):
        kernel.update(GATConv(D, 8, heads=2), verts, stray, combined=False)


def test_head_multiclass(bucket):
    verts, *_ = bucket
    model = build_sage(D, 10, 4, seed=2)
    h = np.random.default_rng(5).standard_normal((verts.num_rows, 10))
    res = kernel.head(model, _shuffled(kernel.with_state(verts, h), 1))
    logits = h @ model.head.params["w"].data + model.head.params["b"].data
    np.testing.assert_array_equal(res["id"].to_numpy(), verts["id"].to_numpy())
    np.testing.assert_allclose(kernel.to_matrix(res["logits"], 4), logits, atol=1e-10)
    np.testing.assert_array_equal(res["pred"].to_numpy(), logits.argmax(1))
