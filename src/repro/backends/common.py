"""Logical workers and run statistics, shared by all backends.

* **Logical workers.** The paper runs on ~1000 instances; locally we
  simulate placement with ``worker(id) = pmod(xxhash64(id), W)``
  (W = 16). Strategy semantics (combine per sender worker, broadcast per
  receiver worker) and all communication metrics are defined against
  these logical workers, so the measured message/byte reductions are
  exact and machine-independent.
* **Shipping rule** (:func:`shipping`): whether a layer's messages
  travel as partials, broadcast rows or one per edge — the one rule the
  engine and the accounting share.
* **Communication accounting** (:func:`count_comm`): the paper's message
  and byte counts per layer, derived from the edge stream.
* **Local checkpoints** (:func:`checkpoint`, :func:`release`): the one
  place that materializes a DataFrame in executor memory and drops it
  again, its query planned by :func:`planned`.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.gas import GASLayer

N_WORKERS = 16


def worker_of(col):
    """Logical worker (simulated machine) hosting a node id, a vertex row's
    ``pid``; a message's is its receiver's, which the sender computes in
    NumPy (:func:`repro.backends.kernel.worker`)."""
    return F.pmod(F.xxhash64(col), F.lit(N_WORKERS))


@dataclass
class RoundStats:
    """Communication accounting for one layer/superstep."""

    layer: int
    msg_rows: int = 0  # rows crossing the gather shuffle
    msg_floats: int = 0  # payload doubles shipped (excl. 16B of ids/row)
    id_rows: int = 0  # destination ids carried by broadcast rows (16B each)

    @property
    def msg_bytes(self) -> int:
        return (self.msg_rows + self.id_rows) * 16 + self.msg_floats * 8


@dataclass
class RunStats:
    """Wall-clock + communication profile of one inference run."""

    backend: str
    wall_s: float = 0.0
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def total_msg_rows(self) -> int:
        return sum(r.msg_rows for r in self.rounds)

    @property
    def total_msg_bytes(self) -> int:
        return sum(r.msg_bytes for r in self.rounds)

    def cpu_min(self, cores: int = 16) -> float:
        """Paper-style resource accounting: the whole (simulated) cluster
        is held for the duration of the job."""
        return self.wall_s * cores / 60.0


def shipping(layer: GASLayer, *, partial_gather: bool, broadcast: bool) -> str:
    """How a layer's messages cross logical workers under the strategies:

    * ``"partial"`` — partial gather on and a ``partial`` layer (this wins
      over broadcast): sender-side partials, one per ``(worker(src), dst)``.
    * ``"broadcast"`` — broadcast on and a ``broadcastable`` layer: one
      payload per ``(src, worker(dst))``, carrying that worker's
      destinations.
    * ``"edge"`` — otherwise: one message per edge.
    """
    if partial_gather and layer.partial:
        return "partial"
    if broadcast and layer.broadcastable:
        return "broadcast"
    return "edge"


def count_comm(
    edges: DataFrame, layer: GASLayer, *, partial_gather: bool, broadcast: bool
) -> tuple[int, int]:
    """Exact (rows, payload_floats) crossing logical workers this layer,
    from the ``(src, dst)`` edge stream, as the engine ships them
    (:func:`shipping`): the partials, one broadcast row per ``(src,
    worker(dst))``, or one message per edge. A broadcast row's
    destination ids — one :attr:`RoundStats.id_rows` row per edge — are
    left out of this count.
    """
    ship = shipping(layer, partial_gather=partial_gather, broadcast=broadcast)
    if ship == "partial":
        rows = int(
            edges.select(worker_of(F.col("src")).alias("w"), "dst").distinct().count()
        )
        return rows, rows * layer.aggregator.partial_dim
    if ship == "broadcast":
        rows = int(edges.select("src", worker_of(F.col("dst"))).distinct().count())
        return rows, rows * layer.msg_dim
    rows = int(edges.count())
    return rows, rows * layer.msg_dim


@contextmanager
def planned(spark: SparkSession):
    """Plan the engine's own queries as one Spark job with one task per core.

    While open, adaptive execution is off, so a query's shuffles run as
    stages of the one job that materializes it rather than a job each,
    and a shuffle has ``min(defaultParallelism, N_WORKERS)`` partitions:
    one Python task per core, and never more than there are logical
    workers to group by. More partitions cost more than they gain in
    balance: at 2 × cores each extra Python task cost ~90 ms of CPU on a
    4-core machine at bench size.

    The settings are session-wide while the scope is open: a concurrent
    query in the same session would be planned under them too. On exit
    both are restored to the values found, also when the body fails, so
    the session's own settings are left alone.
    """
    conf = spark.conf
    scoped = {
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.shuffle.partitions": str(
            min(spark.sparkContext.defaultParallelism, N_WORKERS)
        ),
    }
    found = {key: conf.get(key) for key in scoped}
    try:
        for key, value in scoped.items():
            conf.set(key, value)
        yield
    finally:
        for key, value in found.items():
            conf.set(key, value)


def checkpoint(df: DataFrame) -> DataFrame:
    """``df`` materialized in executor memory with its lineage cut, its
    query planned as one job under :func:`planned`.

    localCheckpoint keeps the state resident (the Pregel property) AND
    truncates plan lineage — without it, iterative supersteps nest plans
    until the driver OOMs. The physical plan is fixed when localCheckpoint
    is called, so the scope wraps that call as well as the job that
    materializes it; its settings are session-wide while it is open, and
    the session's own come back when it closes. Release with
    :func:`release`, also when materializing fails."""
    with planned(df.sparkSession):
        cp = df.localCheckpoint(eager=False)
        try:
            _blocks(cp).count()  # one job, as an eager checkpoint runs
        except BaseException:
            release(cp)
            raise
    return cp


def _blocks(cp: DataFrame):
    """The JVM RDD holding a local checkpoint's blocks."""
    return cp._jdf.queryExecution().analyzed().rdd()


def release(cp: DataFrame) -> None:
    """Drop a :func:`checkpoint` frame's blocks, which
    ``DataFrame.unpersist`` does not reach."""
    _blocks(cp).unpersist(False)


class Timer:
    """Context manager measuring wall seconds."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0
