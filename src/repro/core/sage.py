"""GraphSAGE convolution in the GAS-like abstraction (paper Fig. 3, left).

* ``scatter``: a node sends its current state on every out-edge
  (identical messages → ``broadcastable``).
* ``apply_edge``: pass-through (optionally adds a projected edge feature).
* ``aggregate``: mean/sum/max pooling — commutative + associative, hence
  annotated ``partial=True`` so backends may combine it sender-side.
* ``apply_node``: ``act(h·W_self + aggr·W_nbr + b)``.
"""
from __future__ import annotations

import numpy as np

from repro.core.gas import GASLayer, MaxAgg, MeanAgg, SumAgg
from repro.nn.autodiff import Tensor, gather_rows, segment_max, segment_mean, segment_sum

_AGGS = {"mean": MeanAgg, "sum": SumAgg, "max": MaxAgg}
_SEG_FNS = {"mean": segment_mean, "sum": segment_sum, "max": segment_max}


class SAGEConv(GASLayer):
    """GraphSAGE layer with a pooling aggregator."""

    kind = "sage"
    partial = True
    broadcastable = True

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        agg: str = "mean",
        act: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(in_dim, out_dim)
        if agg not in _AGGS:
            raise ValueError(f"unknown aggregator {agg!r}")
        self.agg = agg
        self.act = act
        self.aggregator = _AGGS[agg](in_dim)
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / np.sqrt(in_dim)
        self.params = {
            "w_self": Tensor(rng.standard_normal((in_dim, out_dim)) * scale, True),
            "w_nbr": Tensor(rng.standard_normal((in_dim, out_dim)) * scale, True),
            "b": Tensor(np.zeros(out_dim), True),
        }

    def _act(self, t: Tensor) -> Tensor:
        return t.relu() if self.act == "relu" else t

    def _combine(self, h_self: Tensor, aggr: Tensor) -> Tensor:
        p = self.params
        return self._act(h_self @ p["w_self"] + aggr @ p["w_nbr"] + p["b"])

    # -- inference stages (NumPy in / NumPy out) ---------------------------
    def apply_node(self, h_self: np.ndarray, aggr: np.ndarray) -> np.ndarray:
        return self._combine(Tensor(h_self), Tensor(aggr)).data

    # -- training / reference forward ---------------------------------------
    def forward(self, h: Tensor, src, dst, efeat=None) -> Tensor:
        n = h.data.shape[0]
        msgs = gather_rows(self.scatter(h), np.asarray(src, dtype=np.int64))
        aggr = _SEG_FNS[self.agg](msgs, np.asarray(dst, dtype=np.int64), n)
        return self._combine(h, aggr)

    def signature(self) -> dict:
        return {**super().signature(), "act": self.act}
