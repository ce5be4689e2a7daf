"""The bucket kernel on hand-built Arrow buckets: what a logical worker
sends, and the updates on receipt, do not depend on the order rows arrive
in and match the local forward; partials and broadcast messages give the
per-edge update's states bit for bit; nodes without messages get a zero
aggregate, and messages to unknown nodes are rejected; the prediction head
is one affine map per node."""
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
    """40 nodes with sparse ids on 4 logical workers and 300 edges
    (multi-edges included) as their out-adjacency; the node in row 0
    receives no message."""
    rng = np.random.default_rng(3)
    n, m = 40, 300
    ids = np.sort(rng.choice(1 << 40, n, replace=False)).astype(np.int64)
    x = rng.standard_normal((n, D))
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(1, n, m)
    adj = pa.ListArray.from_arrays(
        pa.array(np.searchsorted(src, np.arange(n + 1)).astype(np.int32)), pa.array(ids[dst])
    )
    verts = pa.table({"id": ids, "pid": ids % 4, "adj": adj, "h": kernel.from_matrix(x)})
    return verts, x, src, dst


def _shuffled(tbl: pa.Table, seed: int) -> pa.Table:
    return tbl.take(np.random.default_rng(seed).permutation(tbl.num_rows))


def _sent(layer, ship, verts):
    """What ``verts`` send, one pass per logical worker as the engine runs
    them."""
    pids = verts["pid"].to_numpy()
    return pa.concat_tables(
        kernel.send(layer, ship, verts.filter(pids == p)) for p in np.unique(pids)
    )


def _update(layer, ship, verts, *, seed=None):
    """update() on what ``verts`` send under ``ship``; with ``seed``, on the
    bucket's rows in a random order."""
    msgs = _sent(layer, ship, verts)
    if seed is not None:
        verts, msgs = _shuffled(verts, seed), _shuffled(msgs, seed + 10)
    return kernel.update(layer, ship, verts, msgs)


def _assert_same(a: pa.Table, b: pa.Table, cols) -> None:
    for c in cols:
        if pa.types.is_list(a.schema.field(c).type):
            np.testing.assert_array_equal(
                kernel.to_matrix(a[c], len(a[c][0])), kernel.to_matrix(b[c], len(b[c][0]))
            )
        else:
            np.testing.assert_array_equal(a[c].to_numpy(), b[c].to_numpy())


LAYERS = {
    "sage-lifted": (lambda: SAGEConv(D, 8, agg="mean"), "edge"),
    "sage-merged": (lambda: SAGEConv(D, 8, agg="mean"), "partial"),
    "sage_max-merged": (lambda: SAGEConv(D, 8, agg="max"), "partial"),
    "sage-broadcast": (lambda: SAGEConv(D, 8, agg="mean"), "broadcast"),
    "gat": (lambda: GATConv(D, 8, heads=2), "edge"),
    "gat-broadcast": (lambda: GATConv(D, 8, heads=2), "broadcast"),
}


@pytest.mark.parametrize("key", list(LAYERS))
def test_update_is_bit_identical_under_row_permutation(bucket, key):
    verts, x, src, dst = bucket
    make, ship = LAYERS[key]
    layer = make()
    want = _update(layer, ship, verts)
    for seed in range(3):
        got = _update(layer, ship, verts, seed=seed)
        _assert_same(got, want, ["id", "h"])
    # and equal to the local forward over the same edges
    ref = layer.forward(Tensor(x), src, dst).data
    np.testing.assert_allclose(kernel.to_matrix(want["h"], 8), ref, atol=1e-12)


def test_combine_is_bit_identical_under_row_permutation(bucket):
    """A worker's pass sends one partial per ``dst``, from its ``pid``,
    bit-identical in any row order."""
    verts, *_ = bucket
    layer = SAGEConv(D, 8, agg="mean")
    mine = verts.filter(verts["pid"].to_numpy() == 1)
    want = kernel.send(layer, "partial", mine)
    dst = set(np.concatenate(mine["adj"].to_numpy(zero_copy_only=False)).tolist())
    assert want.num_rows == len(dst) and set(want["src"].to_pylist()) == {1}
    for seed in range(3):
        got = kernel.send(layer, "partial", _shuffled(mine, seed))
        _assert_same(got, want, ["src", "dst", "payload"])


@pytest.mark.parametrize("agg", ["mean", "max"])
def test_merged_update_is_bit_identical_to_lifted(bucket, agg):
    """Partials from one sender worker, merged on receipt, give the states
    of lifting its per-edge messages there, bit for bit."""
    verts, *_ = bucket
    layer = SAGEConv(D, 8, agg=agg)
    one = verts.set_column(1, "pid", pa.array(np.zeros(verts.num_rows, np.int64)))
    merged = kernel.update(layer, "partial", verts, kernel.send(layer, "partial", one))
    lifted = kernel.update(layer, "edge", verts, kernel.send(layer, "edge", one))
    _assert_same(merged, lifted, ["id", "h"])


@pytest.mark.parametrize("key", ["sage-lifted", "gat"])
def test_broadcast_update_is_bit_identical_to_per_edge(bucket, key):
    """Broadcast rows fanned out on receipt give the per-edge update's
    states bit for bit, in any row order."""
    verts, *_ = bucket
    layer = LAYERS[key][0]()
    want = _update(layer, "edge", verts)
    sent = _sent(layer, "broadcast", verts)
    assert sent.num_rows < _sent(layer, "edge", verts).num_rows
    for seed in (None, 0, 1):
        got = sent if seed is None else _shuffled(sent, seed)
        _assert_same(kernel.update(layer, "broadcast", verts, got), want, ["id", "h"])


@pytest.mark.parametrize("agg", ["mean", "sum", "max"])
@pytest.mark.parametrize("merged", [False, True])
def test_node_without_messages_gets_zero_aggregate(bucket, agg, merged):
    verts, x, *_ = bucket
    layer = SAGEConv(D, 8, agg=agg)
    out = _update(layer, "partial" if merged else "edge", verts)
    assert out["id"][0].as_py() == verts["id"][0].as_py()  # row 0 got no message
    lone = layer.apply_node(x[:1], np.zeros((1, D)))
    np.testing.assert_allclose(kernel.to_matrix(out["h"], 8)[:1], lone, atol=1e-12)


def test_unknown_destination_raises(bucket):
    verts, *_ = bucket
    stray = pa.table(
        {
            "src": [verts["id"][1].as_py()],
            "dst": [7],
            "payload": kernel.from_matrix(np.ones((1, D))),
        }
    )
    with pytest.raises(ValueError, match="unknown node id 7"):
        kernel.update(GATConv(D, 8, heads=2), "edge", verts, stray)


def test_head_multiclass(bucket):
    verts, *_ = bucket
    model = build_sage(D, 10, 4, seed=2)
    h = np.random.default_rng(5).standard_normal((verts.num_rows, 10))
    res = kernel.head(model, _shuffled(kernel.with_state(verts, h), 1))
    logits = h @ model.head.params["w"].data + model.head.params["b"].data
    np.testing.assert_array_equal(res["id"].to_numpy(), verts["id"].to_numpy())
    np.testing.assert_allclose(kernel.to_matrix(res["logits"], 4), logits, atol=1e-10)
    np.testing.assert_array_equal(res["pred"].to_numpy(), logits.argmax(1))
