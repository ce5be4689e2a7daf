"""PySpark reproduction of InferTurbo (Zhang et al., ICDE 2023).

Subpackages:

* :mod:`repro.nn` — NumPy autodiff + optimizers (training substrate)
* :mod:`repro.graphs` — synthetic graphs, datasets, shadow-node rewrite
* :mod:`repro.core` — the GAS-like abstraction, SAGE/GAT, training
* :mod:`repro.backends` — MapReduce + Pregel inference backends and the
  traditional k-hop baseline
* :mod:`repro.strategies` — partial-gather / broadcast / shadow-nodes config
* :mod:`repro.oracle` — DuckDB result-equality checker (tests)

See DESIGN.md for the architecture and EXPERIMENTS.md for results.
"""
