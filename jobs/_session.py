"""Shared helpers for job entrypoints.

:func:`get_session` bootstraps a session when a job runs standalone via
``spark-submit jobs/<name>.py`` or ``python jobs/<name>.py``;
tests/benchmarks inject the ``spark`` fixture instead. :func:`warm_up`
is the pass a timing job runs before it measures anything.
"""
from __future__ import annotations

import os
import tempfile

from pyspark.sql import SparkSession

from repro.backends.khop import infer_khop
from repro.backends.mapreduce import infer_mr
from repro.backends.pregel import infer_pregel
from repro.core.model import build_sage
from repro.graphs.generators import power_law_graph


def get_session(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark: SparkSession, *, feat_dim: int, hidden: int) -> None:
    """Run every system once on a tiny graph (JVM JIT, Python workers,
    Arrow), so the first measured run doesn't absorb startup cost."""
    nodes, edges = power_law_graph(
        spark, n_nodes=200, avg_degree=4, skew="none", feat_dim=feat_dim, seed=99
    )
    model = build_sage(feat_dim, hidden, 4, seed=3)
    infer_khop(spark, nodes, edges, model, fanout=3, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        infer_mr(spark, nodes, edges, model, workdir=tmp)
    infer_pregel(spark, nodes, edges, model)


def print_table(title: str, rows: list[dict]) -> None:
    """Render a list of dicts as a GitHub-markdown table on stdout."""
    if not rows:
        print(f"## {title}\n(no rows)")
        return
    cols = list(rows[0].keys())
    print(f"\n## {title}\n")
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        print("| " + " | ".join(str(r[c]) for c in cols) + " |")
