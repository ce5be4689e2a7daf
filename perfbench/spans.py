"""Layer spans for the traced run, attributed to Spark task metrics.

A :class:`Tracer` wraps public functions at the repo's layer boundaries
from outside the program. Each call becomes a span; while it is open the
thread's ``spark.job.description`` is ``perfbench:<job>:<span>``, so every
Spark job it launches is tagged with the innermost open span. After the
SparkContext stops, :func:`layer_metrics` reads the event log, maps each
tagged job's stages to its span and sums the task metrics per span and
inference job.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TAG = "perfbench"

# per-span metric -> unit, in the order BENCHMARK.json lists them
SPAN_METRICS = {
    "self_s": "s",
    "jobs": "count",
    "tasks": "count",
    "exec_cpu_s": "s",
    "py_run_s": "s",
    "py_bytes_in": "bytes",
    "shuffle_rows": "count",
    "shuffle_bytes": "bytes",
    "fetch_wait_s": "s",
    "gc_s": "s",
    "io_read_bytes": "bytes",
    "io_write_bytes": "bytes",
    "task_skew": "ratio",
    "task_failures": "count",
}
SPANS = ("infer", "graphs.shadow", "pregel.load", "pregel.superstep", "mr.write")


class Tracer:
    """Spans with self time, tagging the Spark jobs each one launches."""

    def __init__(self, sc):
        self.sc = sc
        self.job: int | None = None  # inference job the open spans belong to
        self._open: list[list] = []  # [name, seconds covered by child spans]
        self.self_s: dict[tuple[int, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _tag(self) -> None:
        name = self._open[-1][0] if self._open else None
        self.sc.setJobDescription(f"{TAG}:{self.job}:{name}" if name else None)

    @contextmanager
    def span(self, name: str):
        self._open.append([name, 0.0])
        self._tag()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            _, covered = self._open.pop()
            self.self_s[(self.job, name)] += dur - covered
            if self._open:
                self._open[-1][1] += dur
            self._tag()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that runs inside span ``name``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


def _task_values(ev: dict) -> dict[str, float]:
    m = ev.get("Task Metrics") or {}
    rd = m.get("Shuffle Read Metrics", {})
    wr = m.get("Shuffle Write Metrics", {})
    acc = {a.get("Name"): a.get("Update", 0) for a in ev["Task Info"].get("Accumulables", [])}
    return {
        "exec_cpu_s": m.get("Executor CPU Time", 0) / 1e9,
        # SQL metrics arrive as strings; this timing one is in ms
        "py_run_s": float(acc.get("time to run Python workers", 0)) / 1e3,
        "py_bytes_in": float(acc.get("data sent to Python workers", 0)),
        "shuffle_rows": wr.get("Shuffle Records Written", 0),
        "shuffle_bytes": wr.get("Shuffle Bytes Written", 0),
        "fetch_wait_s": rd.get("Fetch Wait Time", 0) / 1e3,
        "gc_s": m.get("JVM GC Time", 0) / 1e3,
        "io_read_bytes": m.get("Input Metrics", {}).get("Bytes Read", 0),
        "io_write_bytes": m.get("Output Metrics", {}).get("Bytes Written", 0),
        "task_failures": 0 if ev.get("Task End Reason", {}).get("Reason") == "Success" else 1,
    }


def read_event_log(path: Path) -> dict[tuple[int, str], dict[str, float]]:
    """Sum task metrics per (inference job, span) over the tagged Spark jobs
    of an uncompressed event log."""
    stage_owner: dict[int, tuple[int, str]] = {}
    totals: dict[tuple[int, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    run_ms: dict[int, list[int]] = defaultdict(list)  # stage -> task run times
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                desc = (ev.get("Properties") or {}).get("spark.job.description") or ""
                if not desc.startswith(TAG + ":"):
                    continue
                _, job, span = desc.split(":", 2)
                key = (int(job), span)
                totals[key]["jobs"] += 1
                for sid in ev["Stage IDs"]:
                    # a stage runs its tasks in the first job that lists it;
                    # later jobs only skip it
                    stage_owner.setdefault(sid, key)
            elif kind == "SparkListenerTaskEnd" and ev["Stage ID"] in stage_owner:
                key = stage_owner[ev["Stage ID"]]
                totals[key]["tasks"] += 1
                for k, v in _task_values(ev).items():
                    totals[key][k] += v
                info = ev["Task Info"]
                run_ms[ev["Stage ID"]].append(info["Finish Time"] - info["Launch Time"])
    # task_skew: summed over the span's multi-task stages, slowest task
    # time / median task time -- how far stragglers stretch its stages
    slow: dict[tuple[int, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for sid, times in run_ms.items():
        if len(times) > 1:
            acc = slow[stage_owner[sid]]
            acc[0] += max(times)
            acc[1] += statistics.median(times)
    for key, (mx, med) in slow.items():
        totals[key]["task_skew"] = mx / med if med > 0 else 1.0
    return totals


def layer_metrics(
    tracer: Tracer, event_log: Path, jobs: list[int]
) -> dict[str, float]:
    """Per-layer metrics: for each span and metric the median over the
    traced inference ``jobs`` of that job's total (0 where a layer did
    not run)."""
    totals = read_event_log(event_log)
    out = {}
    for span in SPANS:
        for m in SPAN_METRICS:
            per_job = []
            for j in jobs:
                if m == "self_s":
                    per_job.append(tracer.self_s.get((j, span), 0.0))
                else:
                    per_job.append(float(totals.get((j, span), {}).get(m, 0.0)))
            out[f"{span}.{m}"] = statistics.median(per_job)
    return out
