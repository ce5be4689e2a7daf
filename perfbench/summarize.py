#!/usr/bin/env python3
"""Summarize a series of benchmark runs from their records.

    python3 perfbench/summarize.py [.perfbench/records/*.json]

For each workload and metric: the number of runs, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``.
A spread at or above a third of its bound is flagged ``NOISY``, one above
the bound ``OVER``. A second table gives the warm-up profile: each job
position's median ``unstolen_s`` relative to the run's median timed job.
The row ``(wall, steal in)`` is ``infer_s`` computed from plain wall time,
for comparison.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths: list[str]) -> list[dict]:
    if not paths:
        paths = sorted(str(p) for p in Path(".perfbench/records").glob("*.json"))
    return [json.loads(Path(p).read_text()) for p in paths]


def main() -> int:
    records = load(sys.argv[1:])
    if not records:
        print("no records found", file=sys.stderr)
        return 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    series: dict[tuple[str, int, str], list[float]] = defaultdict(list)
    profile: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, value in r["metrics"].items():
            series[(r["workload"], r["trace"], name)].append(value)
        timed = [j for j in r["jobs"] if j["phase"] == "timed" and j["ok"]]
        if timed:
            # for comparison: infer_s had the host's steal been left in
            series[(r["workload"], r["trace"], "(wall, steal in)")].append(
                statistics.median(j["wall_s"] for j in timed)
            )
            base = statistics.median(j["unstolen_s"] for j in timed)
            for j in r["jobs"]:
                if j["phase"] in ("warmup", "timed"):
                    profile[r["workload"]][j["job"]].append(j["unstolen_s"] / base)

    print("| workload | trace | metric | runs | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for (wl, trace, name), values in sorted(series.items()):
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "OVER" if spread > bound else "NOISY" if spread >= bound / 3 else "ok"
        print(
            f"| {wl} | {trace} | {name} | {len(values)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
            f"| {spread:.3f} | {'' if bound is None else bound} | {flag} |"
        )

    print("\n| workload | job | runs | median unstolen time / median timed job |")
    print("|---|---|---|---|")
    for wl, by_job in sorted(profile.items()):
        for job, ratios in sorted(by_job.items()):
            print(f"| {wl} | {job} | {len(ratios)} | {statistics.median(ratios):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
