#!/usr/bin/env python3
"""Full-graph inference benchmark for the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pregel-sage3 --seed 1 --seconds 20 --trace 0

Each run is a closed loop: one driver thread starts a full-graph inference
job (``infer_pregel`` / ``infer_mr`` on inputs generated from ``--seed``),
waits for every node's ``(id, logits, pred)`` to reach the driver, checks
it, and only then starts the next. All jobs share one Spark ``local[k]``
session (k = min(4, cores)). The first jobs of a session are warm-up
(JVM JIT, Python workers) and count towards ``setup_s``; timed jobs follow
until ``--seconds`` is spent. Reported times leave out the CPU time a
shared host withheld from this machine (``procstat.Lap``); the records
keep plain wall time too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: it wraps the layer entry points in spans, tags their
Spark jobs and reads the task metrics back from Spark's event log (see
``spans.py``), and adds exact message counts and ``core`` kernel timings.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every job's timing goes to
``.perfbench/records/`` as data. The exit code is non-zero when any job
fails its correctness check.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kernels
import procstat
import spans

FEAT_DIM = HIDDEN = 32
N_CLASSES = 8
WARMUP_JOBS = 1  # job 1 runs 2-2.5x the steady time
MIN_TIMED_JOBS = 3
MIN_TRACED_JOBS = 1
SPARK_CORES = min(4, os.cpu_count() or 1)

E2E_UNITS = {
    "infer_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "success_ratio": "ratio",
}
LAYER_UNITS = {
    **{f"{s}.{m}": u for s in spans.SPANS for m, u in spans.SPAN_METRICS.items()},
    **{f"core.{k}_ms": "ms" for k in kernels.KERNELS},
    "comm.msg_rows": "count",
    "comm.msg_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    backend: str  # "pregel" or "mr"
    model: str  # "sage" (mean) or "gat" (2 heads)
    layers: int
    strategies: str  # "partial_gather" or "all"
    skew: str
    alpha: float
    n_nodes: int
    avg_degree: float
    bucket_parts: int  # groups one gather is split into: Pregel partitions / MR buckets


WORKLOADS = {
    # per-edge work: supersteps, combiner, segment kernels, Arrow transfer
    "pregel-sage3": Workload("pregel", "sage", 3, "partial_gather", "both", 1.05, 8000, 10, 16),
    # attention union path, Parquet rounds, shadow nodes, broadcast, hub stragglers
    "mr-gat-hubs": Workload("mr", "gat", 2, "all", "out", 1.35, 5000, 10, 64),
}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def prepare_env(root: Path, work: Path, trace: bool) -> None:
    """Environment for pyspark; must run before pyspark is imported."""
    src = root / "src"
    # Python workers import repro too, so they need src on their path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(src))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    # no hsperfdata files in the system temp dir, from either JVM
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    # a fixed-size heap: grown on demand, the JVM's peak RSS varied by 20% between runs
    java_opts = f"-Xms2g -XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
    }
    if trace:
        (work / "eventlog").mkdir()
        conf |= {
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": (work / "eventlog").as_uri(),
            # Spark 4.1 compresses event logs with zstd by default, which
            # no installed Python module reads
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",  # one plain file
        }
    args = [
        f"--master local[{SPARK_CORES}]",
        "--driver-memory 2g",
        f"--driver-java-options {shlex.quote(java_opts)}",
        *(f"--conf {shlex.quote(f'{k}={v}')}" for k, v in conf.items()),
        "pyspark-shell",
    ]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(args)


def start_session():
    from pyspark.sql import SparkSession

    # the repo's session settings (conftest.py, jobs/_session.py)
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM and the Python workers under it
    have ended; a no-op once stopped."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    started = procstat.descendants()  # the JVM, the worker daemon, its workers
    spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        gateway.proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        gateway.proc.kill()
        gateway.proc.wait()
    SparkContext._gateway = None
    # orphaned workers are reparented away from us: wait on their pids
    left = procstat.wait_ended(started, timeout_s=30)
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    procstat.wait_ended(left, timeout_s=10)


def make_inputs(spark, wl: Workload, seed: int):
    from repro.core.model import build_gat, build_sage
    from repro.graphs.generators import power_law_graph

    nodes, edges = power_law_graph(
        spark,
        n_nodes=wl.n_nodes,
        avg_degree=wl.avg_degree,
        skew=wl.skew,
        alpha=wl.alpha,
        feat_dim=FEAT_DIM,
        seed=seed,
    )
    nodes = nodes.localCheckpoint(eager=True)
    edges = edges.localCheckpoint(eager=True)
    build = build_sage if wl.model == "sage" else build_gat
    kwargs = {"agg": "mean"} if wl.model == "sage" else {"heads": 2}
    model = build(FEAT_DIM, HIDDEN, N_CLASSES, n_layers=wl.layers, seed=seed, **kwargs)
    return nodes, edges, model


class Gate:
    """Correctness check of one job's collected result against the local
    reference forward and against the run's first job."""

    def __init__(self, reference: np.ndarray, model):
        self.reference = reference
        self.model = model
        self.first: np.ndarray | None = None

    def check(self, pdf) -> str | None:
        """None when the result is correct, else the reason it is not."""
        ids = pdf["id"].to_numpy()
        order = np.argsort(ids, kind="stable")
        if not np.array_equal(ids[order], np.arange(len(self.reference))):
            return "result does not hold every node exactly once"
        logits = np.stack(pdf["logits"].to_numpy()[order])
        if not np.allclose(logits, self.reference, rtol=1e-7, atol=1e-8):
            return "logits differ from the reference forward"
        pred = np.asarray(pdf["pred"].to_numpy()[order], dtype=np.int64)
        if not np.array_equal(pred, self.model.predict(logits)):
            return "pred does not match the logits"
        if self.first is None:
            self.first = logits
        elif not np.array_equal(logits, self.first):
            return "logits not bit-identical to the first job"
        return None


class Runner:
    """Runs and checks inference jobs, keeping a record of each."""

    def __init__(self, spark, wl: Workload, nodes, edges, model, gate: Gate, workdir: Path):
        from repro.strategies import StrategyConfig

        self.spark, self.wl = spark, wl
        self.nodes, self.edges, self.model = nodes, edges, model
        self.gate = gate
        self.workdir = workdir
        self.strategies = (
            StrategyConfig.all()
            if wl.strategies == "all"
            else StrategyConfig(partial_gather=True)
        )
        self.jobs: list[dict] = []

    def _infer(self, instrument: bool):
        if self.wl.backend == "pregel":
            from repro.backends.pregel import infer_pregel

            result, stats = infer_pregel(
                self.spark, self.nodes, self.edges, self.model,
                strategies=self.strategies, instrument=instrument,
            )
        else:
            from repro.backends.mapreduce import infer_mr

            result, stats = infer_mr(
                self.spark, self.nodes, self.edges, self.model,
                workdir=self.workdir, strategies=self.strategies, instrument=instrument,
            )
        return result.toPandas(), stats

    def job(self, phase: str, *, around=None, instrument: bool = False) -> dict:
        """One inference job; ``around(i)`` optionally returns a context
        manager wrapped around the call (the traced run's root span)."""
        i = len(self.jobs)
        rec = {"job": i, "phase": phase, "ok": False}
        cpu0 = procstat.tree_cpu_s()
        lap = procstat.Lap()
        try:
            if around is None:
                pdf, stats = self._infer(instrument)
            else:
                with around(i):
                    pdf, stats = self._infer(instrument)
            rec |= lap.stop()
            rec["cpu_s"] = procstat.tree_cpu_s() - cpu0
            err = self.gate.check(pdf)
        except Exception:  # a failed job is counted, not fatal
            rec |= lap.stop()
            err = traceback.format_exc(limit=3)
            stats = None
        rec["ok"] = err is None
        if err:
            rec["error"] = err
            print(f"perfbench: job {i} ({phase}) failed: {err}", file=sys.stderr)
        if instrument and stats is not None:
            rec["msg_rows"] = stats.total_msg_rows
            rec["msg_bytes"] = stats.total_msg_bytes
        self.jobs.append(rec)
        return rec


def repeat_for(seconds: float, min_times: int, step) -> None:
    """Call ``step()`` back to back while the next call is expected to end
    within ``seconds`` of the first, and at least ``min_times`` times."""
    took: list[float] = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        if len(took) >= min_times and time.perf_counter() - t0 + statistics.median(took) > seconds:
            return


def median_of(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs if r["ok"])


def end_to_end(jobs: list[dict], peak_rss_mb: float, setup_s: float) -> dict:
    ok = [r for r in jobs if r["phase"] == "timed" and r["ok"]]
    return {
        "infer_s": median_of(ok, "unstolen_s") if ok else 0.0,
        "cpu_s": median_of(ok, "cpu_s") if ok else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "success_ratio": sum(r["ok"] for r in jobs) / len(jobs),
    }


def traced_metrics(runner: Runner, seconds: float, work: Path, seed: int) -> dict:
    """Per-layer metrics of the traced run; stops the Spark session.

    Untraced and traced jobs alternate, starting and ending untraced, so
    the untraced median brackets the traced jobs on the warm-up slope
    when ``trace_overhead_ratio`` compares them."""
    from pyspark.sql import DataFrameWriter

    from repro.backends import pregel
    from repro.graphs import shadow

    tracer = spans.Tracer(runner.spark.sparkContext)

    def root(i):
        tracer.job = i
        return tracer.span("infer")

    untraced, traced = [runner.job("untraced")], []

    def traced_then_untraced():
        tracer.wrap(shadow, "apply_shadow_nodes", "graphs.shadow")
        tracer.wrap(pregel.Pregel, "__init__", "pregel.load")
        tracer.wrap(pregel.Pregel, "superstep", "pregel.superstep")
        tracer.wrap(DataFrameWriter, "parquet", "mr.write")
        try:
            traced.append(runner.job("traced", around=root))
        finally:
            tracer.unwrap_all()
        untraced.append(runner.job("untraced"))

    repeat_for(seconds, MIN_TRACED_JOBS, traced_then_untraced)
    # exact message accounting, outside every timer
    counted = runner.job("instrument", instrument=True)
    stop_session(runner.spark)
    (log,) = (work / "eventlog").iterdir()
    metrics = spans.layer_metrics(tracer, log, [r["job"] for r in traced if r["ok"]])
    metrics["comm.msg_rows"] = float(counted.get("msg_rows", 0))
    metrics["comm.msg_bytes"] = float(counted.get("msg_bytes", 0))
    wl = runner.wl
    metrics |= kernels.kernel_timings(
        nodes=wl.n_nodes // wl.bucket_parts,
        msgs=int(wl.n_nodes * wl.avg_degree) // wl.bucket_parts,
        dim=FEAT_DIM,
        seed=seed,
    )
    metrics["trace_overhead_ratio"] = (
        median_of(traced, "unstolen_s") / median_of(untraced, "unstolen_s")
    )
    return metrics


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    base = root / ".perfbench"
    work = base / "work"
    shutil.rmtree(work, ignore_errors=True)
    prepare_env(root, work, bool(args.trace))

    t_setup = time.perf_counter()
    lap = procstat.Lap()
    spark = start_session()
    try:
        session = lap.stop()
        lap = procstat.Lap()
        nodes, edges, model = make_inputs(spark, wl, args.seed)
        inputs = lap.stop()

        # reference logits: outside every timer and outside setup_s
        from repro.core.reference import forward_full
        from repro.graphs.local import LocalGraph

        t0 = time.perf_counter()
        reference = forward_full(model, LocalGraph.from_spark(nodes, edges))
        reference_s = time.perf_counter() - t0
        runner = Runner(spark, wl, nodes, edges, model, Gate(reference, model), work / "mr")

        warm = [runner.job("warmup") for _ in range(WARMUP_JOBS)]
        setup_s = sum(part["unstolen_s"] for part in (session, inputs, *warm))
        if not args.trace:
            repeat_for(args.seconds, MIN_TIMED_JOBS, lambda: runner.job("timed"))

        if args.trace and all(r["ok"] for r in runner.jobs):
            metrics = traced_metrics(runner, args.seconds, work, args.seed)
        elif args.trace:
            metrics = {}
        else:
            metrics = end_to_end(runner.jobs, procstat.tree_peak_rss_mb(), setup_s)
    finally:
        stop_session(spark)  # a no-op when traced_metrics stopped it already
    attempted = len(runner.jobs)
    ok = sum(r["ok"] for r in runner.jobs)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spark_cores": SPARK_CORES,
        "setup_parts": {"session": session, "inputs": inputs},  # warm-up jobs are in "jobs"
        "reference_s": reference_s,  # not part of setup_s
        "run_wall_s": time.perf_counter() - t_setup,
        "timed_samples": sum(r["phase"] == "timed" and r["ok"] for r in runner.jobs),
        "jobs": runner.jobs,
        "metrics": metrics,
    }
    records = base / "records"
    records.mkdir(parents=True, exist_ok=True)
    out = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    correct = ok == attempted
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
