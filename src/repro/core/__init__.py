"""InferTurbo's core: the GAS-like five-stage abstraction and GNN models.

The paper (§IV-B) describes every GNN layer as five stages:

==============  ===========  ====================================================
stage           flow         role
==============  ===========  ====================================================
gather_nbrs     data         receive messages via in-edges, vectorize to tensors
aggregate       computation  pre-reduce messages; MUST be commutative+associative
apply_node      computation  update node state from (old state, aggregated msgs)
apply_edge      computation  produce per-out-edge messages from state (+efeat)
scatter_nbrs    data         send messages via out-edges
==============  ===========  ====================================================

The data-flow stages (gather_nbrs / scatter_nbrs) are built into the
backends (``repro.backends``); models only define the computation flow
(:class:`repro.core.gas.GASLayer`). The backends send what a layer's
``scatter`` emits (``repro.backends.kernel.send``); ``apply_edge`` is the
identity there, because no edge features reach the data path. The
annotation rule — ``partial=True`` iff ``aggregate`` obeys the commutative
and associative laws — is what licenses the partial-gather/combiner
optimization in the backends.
"""
from repro.core.gas import Aggregator, GASLayer, MaxAgg, MeanAgg, SumAgg, UnionAgg  # noqa: F401
from repro.core.model import GNNModel, build_gat, build_sage  # noqa: F401
