"""Inference backends.

* :mod:`repro.backends.mapreduce` — the batch-processing (MapReduce/
  Spark) backend: node state round-trips through external storage
  (Parquet) between layers.
* :mod:`repro.backends.pregel` — the Pregel-like graph-processing
  backend: vertex state + out-adjacency stay resident across supersteps;
  each superstep is one exchange plus one pass per logical worker, and
  only messages move between workers, combined at the sender.
* :mod:`repro.backends.khop` — the *traditional* pipeline baseline
  (PyG/DGL stand-in): sampled k-hop neighborhood construction plus
  per-target localized forward, with all its redundant computation.

Both InferTurbo backends run the same per-batch GAS stages from
:mod:`repro.backends.kernel` over the shuffles of
:mod:`repro.backends.common`, and produce bit-identical results.
"""
from repro.backends.common import N_WORKERS, RunStats  # noqa: F401
