"""Collect perfbench end-to-end runs of a parent and a change checkout into one record.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_<pr>.json

Each directory is a git checkout in which ``perfbench/run.py --trace 0`` ran
for the same workloads and seeds, leaving ``perfbench/out/*-trace0.json``.
Runs pair up by (workload, seed). Per workload and end-to-end metric of
``BENCHMARK.json`` the record holds the parent and change medians, quartiles
and interquartile ranges, the pairs the change won, the seeds and both
commit ids, and a ``verdict`` (see ``verdict``). When both directories also hold the seed-0 ``--trace 1`` results
file of a workload, the record holds each side's integer per-layer counts
from it (``traced_counts``), so count evidence sits next to the timings.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


class TooFewPairs(ValueError):
    """A workload has fewer than the 2 pairs of runs its quartiles need."""


def commit(directory: str) -> str:
    return subprocess.check_output(["git", "-C", directory, "rev-parse", "HEAD"], text=True).strip()


def runs(directory: str) -> dict:
    found = {}
    for path in glob.glob(os.path.join(directory, "perfbench", "out", "*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        found[run["workload"], run["environment"]["seed"]] = run
    return found


def traced_counts(directory: str, workload: str) -> dict | None:
    """The integer counts of ``workload``'s seed-0 traced run in ``directory``, or None."""
    path = os.path.join(directory, "perfbench", "out", f"{workload}-seed0-trace1.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        metrics = json.load(fh)["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (b - a) < 0 for a, b in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: list[int]) -> str:
    """One metric's reading by the simplicity guide's rules, ``bound`` relative to the parent.

    ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them, its
    median beats the parent's by more than the parent's IQR, and no more runs
    failed.
    ``worse``: its median is worse than the parent's by more than the bound.
    ``unresolved``: otherwise, when either side's IQR exceeds the bound (as a
    share of its median), unless every change run beats every parent run.
    ``within_bound``: the rest.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = summary(parent), summary(change)
    wins = change_wins(parent, change, better)
    ahead = sign * (p["median"] - c["median"])
    if (len(parent) >= 10 and 10 * wins >= 9 * len(parent) and ahead > p["iqr"]
            and failed[1] <= failed[0]):
        return "gain"
    if -ahead > bound * abs(p["median"]):
        return "worse"
    spread = max(side["iqr"] / abs(side["median"]) if side["median"] else float("inf")
                 for side in (p, c))
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "within_bound"


def record(parent_dir: str, change_dir: str) -> dict:
    with open(os.path.join(change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = runs(parent_dir), runs(change_dir)
    pairs = sorted(parent.keys() & change.keys())
    out = {"parent_commit": commit(parent_dir), "change_commit": commit(change_dir),
           "workloads": {}}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        if len(seeds) < 2:
            raise TooFewPairs(f"{workload}: {len(seeds)} pair of runs, and quartiles need at "
                              "least 2")
        both = [(parent[workload, s], change[workload, s]) for s in seeds]
        entry = {"seeds": seeds,
                 "all_correct": all(p["correct"] and c["correct"] for p, c in both),
                 "failed": [sum(p["failed"] for p, _ in both), sum(c["failed"] for _, c in both)],
                 "metrics": {}}
        for metric in metrics:
            name = metric["name"]
            p = [run["metrics"][name]["value"] for run, _ in both]
            c = [run["metrics"][name]["value"] for _, run in both]
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": summary(p), "change": summary(c),
                "change_better_pairs": change_wins(p, c, metric["better"]),
                "verdict": verdict(p, c, metric["better"], metric["bound"], entry["failed"]),
            }
        counts = [traced_counts(d, workload) for d in (parent_dir, change_dir)]
        if None not in counts:
            entry["traced_counts"] = dict(zip(("parent", "change"), counts))
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--out", required=True, help="record file to write")
    args = parser.parse_args(argv)
    try:
        text = json.dumps(record(args.parent_dir, args.change_dir), indent=1) + "\n"
    except TooFewPairs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
