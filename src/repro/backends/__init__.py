"""Inference backends.

* :mod:`repro.backends.pregel` — the superstep engine and the GNN vertex
  program both InferTurbo backends run. Each logical worker holds its
  vertices' state and out-adjacency; a superstep is one exchange plus one
  pass per logical worker, and only messages move between workers,
  combined at the sender. As the Pregel backend, frames stay resident
  across supersteps and the last one applies the prediction head.
* :mod:`repro.backends.mapreduce` — the batch-processing (MapReduce/
  Spark) backend: the same program, but each round's frame round-trips
  through external storage (Parquet); the last round applies the head
  too and stores the final state with the logits, which is the result.
* :mod:`repro.backends.khop` — the *traditional* pipeline baseline
  (PyG/DGL stand-in): sampled k-hop neighborhood construction plus
  per-target localized forward, with all its redundant computation.

Both InferTurbo backends run the per-batch GAS stages of
:mod:`repro.backends.kernel` over the same worker groups, and produce
bit-identical results.
"""
from repro.backends.common import N_WORKERS, RunStats  # noqa: F401
