"""StrategyConfig and the λ-threshold heuristic."""
import pytest

from repro.graphs.shadow import shadow_threshold
from repro.strategies import StrategyConfig


def test_defaults_off():
    sc = StrategyConfig()
    assert not (sc.partial_gather or sc.broadcast or sc.shadow_nodes)


def test_none_and_all():
    assert StrategyConfig.none() == StrategyConfig()
    sc = StrategyConfig.all()
    assert sc.partial_gather and sc.broadcast and sc.shadow_nodes


def test_frozen():
    with pytest.raises(Exception):
        StrategyConfig().partial_gather = True


@pytest.mark.parametrize(
    "edges,workers,expect",
    [
        (1_000_000_000, 1000, 100_000),  # the paper's own example
        (100, 16, 1),  # floor
        (1_600_000, 16, 10_000),
    ],
)
def test_threshold_formula(edges, workers, expect):
    assert shadow_threshold(edges, workers) == expect
