"""Optimization-strategy configuration (paper §IV-D).

Three strategies, all sampling-free and result-preserving:

* ``partial_gather`` — combine commutative/associative aggregates on the
  sender side, keyed ``(dst, worker(src))``; legal only for layers
  annotated ``partial=True``.
* ``broadcast`` — send one payload per ``(src, worker(dst))`` instead of
  one per out-edge, fanned out to its destinations by the receiving
  worker; legal only for layers annotated ``broadcastable``, and partial
  gather wins where both apply (see
  :func:`repro.backends.common.shipping`).
* ``shadow_nodes`` — split out-degree hubs into mirrors, in the vertex
  rows before the load, at the paper's threshold ``λ·E/W`` (λ = 0.1)
  decided from those rows (see :mod:`repro.graphs.shadow`).

Backends read layer annotations from the model signature, so an illegal
combination (e.g. partial-gather on GAT) silently degrades to the safe
path rather than corrupting results — exactly the paper's rule.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StrategyConfig:
    """Which §IV-D strategies an inference run enables."""

    partial_gather: bool = False
    broadcast: bool = False
    shadow_nodes: bool = False

    @staticmethod
    def none() -> "StrategyConfig":
        return StrategyConfig()

    @staticmethod
    def all() -> "StrategyConfig":
        return StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True)
