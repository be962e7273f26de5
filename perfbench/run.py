"""trkm benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload grid_classify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
``trkm`` package in ``src/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A results file with the environment, per-step timings and
the check outcome goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; every subprocess inherits it.
# On a shared 2-core machine a second BLAS thread made the grid searches'
# small solves noisier, and it would oversubscribe the cores when the
# grid's own thread pool runs.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
sys.path.insert(0, SRC)

import numpy as np
import scipy

import workloads as wl
from calibrate import reference_loop
from spans import Tracer, layer_metrics

# Inputs of the check pass and of the stored reference outputs.
DEFAULT_SEED = 0
SETUP_REPS = 3
# A step shorter than this (the grid workloads' predicts take milliseconds)
# is repeated within a round until its runs add up to it.
MIN_STEP_S = 0.5
# Units of the workload-specific figures printed under the metrics.
REPORT_UNITS = {"wall_s": "s", "train_s": "s", "predict_s": "s", "reference_loop_s": "s",
                "fail_frac": "ratio", "cell_fail_frac": "ratio", "cv_acc_pct": "%",
                "cv_rmse": "target", "test_acc_pct": "%", "test_rmse": "target"}


def import_program():
    """Import trkm from this checkout's src/, never from an installed copy."""
    import trkm.cli

    if not os.path.abspath(trkm.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"trkm imported from {trkm.cli.__file__}, not from {SRC}")
    return trkm.cli


class Command:
    """Outcome of one step: exit code, time, captured output, check problems."""

    def __init__(self, step, code, seconds, stdout, stderr):
        self.step, self.code, self.seconds = step, code, seconds
        self.stdout, self.stderr = stdout, stderr
        self.problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]


def run_command(cli, step):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(step.argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return Command(step, code, time.perf_counter() - start, out.getvalue(), err.getvalue())


class Checker:
    """Checks each command's output as soon as it ran, and counts the outcomes.

    Invariants are checked for every input. With ``ref``, outputs are also
    compared with the stored reference, which was made from the same inputs.
    ``figures`` keeps the latest quality figures per output file.
    """

    def __init__(self, workload, d, ref=None):
        self.workload, self.d, self.ref = workload, d, ref
        self.attempted, self.failures, self.figures = 0, [], {}

    def __call__(self, c):
        self.attempted += 1
        if c.code == 0:
            try:
                self.figures[c.step.output] = self._check(c)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                c.problems.append(f"{c.step.output}: unreadable ({exc})")
        if c.problems:
            self.failures.append({"argv": c.step.argv, "problems": c.problems})
        return c

    def _check(self, c):
        step, ref = c.step, self.ref
        path = os.path.join(self.d, step.output)
        if step.argv[0] == "gridsearch":
            task = self.workload.task
            grid = wl.read_grid(path)
            c.problems += wl.check_grid(grid, task, wl.COLUMN_CELLS)
            if ref is not None:
                c.problems += wl.compare_grid(grid, ref["cells"], task)
            return {"cells": len(grid["cells"]), "cv": grid["best_cv_score"],
                    "cells_failed": sum(1 for cell in grid["cells"] if cell["error"])}
        if step.role == "predict":
            problems, pred, score = wl.check_predictions(path, step.test, step.task, c.stdout)
            c.problems += problems
            if ref is not None:
                c.problems += wl.compare_predictions(pred, ref["predictions"][step.output], step.task)
            name = "test_acc_pct" if step.task == "classify" else "test_rmse"
            return {"score": (f"{name}.{step.model}", score)}
        if not os.path.isfile(path):
            c.problems.append(f"{step.output} not written")
        return {}

    def report(self):
        """fail_frac and the workload's quality figures, from the latest outputs."""
        out = {"fail_frac": len(self.failures) / max(1, self.attempted)}
        grids = [f for f in self.figures.values() if "cells" in f]
        if grids:
            out["cell_fail_frac"] = sum(f["cells_failed"] for f in grids) / sum(f["cells"] for f in grids)
            if self.workload.task == "classify":
                out["cv_acc_pct"] = max(f["cv"] for f in grids)
            else:
                out["cv_rmse"] = min(f["cv"] for f in grids)
        out.update(f["score"] for f in self.figures.values() if "score" in f)
        return out


def run_pass(cli, workload, d, check, threads=1):
    """Run the workload's steps once; return the pass's wall time."""
    start = time.perf_counter()
    for step in workload.commands(d, threads):
        check(run_command(cli, step))
    return time.perf_counter() - start


def timed_rounds(cli, workload, d, check, seconds):
    """Run the pass's steps round-robin for ``seconds``; return each step's samples.

    Every step runs at least once. Each round runs every step in turn, and
    a step repeats within its round until its runs there add up to
    ``MIN_STEP_S``. The reference loop runs before the first step and after
    each step's runs; a sample is the step's mean time in one round, in
    seconds and as a multiple of the mean of the two reference loops around
    it. Returns the steps, their samples as (seconds, ratio) pairs, and the
    reference loop's times.
    """
    steps = workload.commands(d, 1)
    samples = [[] for _ in steps]
    reference = [reference_loop()]
    deadline = time.perf_counter() + seconds
    while not samples[-1] or time.perf_counter() < deadline:
        for step, step_samples in zip(steps, samples):
            if step_samples and time.perf_counter() >= deadline:
                break
            runs = []
            while sum(runs) < MIN_STEP_S:
                runs.append(check(run_command(cli, step)).seconds)
            reference.append(reference_loop())
            mean = sum(runs) / len(runs)
            step_samples.append((mean, mean / ((reference[-2] + reference[-1]) / 2)))
    return steps, samples, reference


@contextlib.contextmanager
def timing(module, attr, times):
    """Time each call of ``module.attr`` into ``times`` (one clock pair per call)."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    setattr(module, attr, timed)
    try:
        yield times
    finally:
        setattr(module, attr, original)


def load_reference(workload):
    with open(os.path.join(REFERENCE, f"{workload.name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_setup(workload, seed, d):
    """Time one set-up in a fresh interpreter: imports, inputs, CSV writes."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload.name, str(seed), d],
        capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return seconds, json.loads(proc.stdout.splitlines()[-1])


def environment(shapes, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "input_shapes": shapes,
        "seed": seed,
        "check_seed": DEFAULT_SEED,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        return run(cli, workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(cli, workload, args, work):
    ref = load_reference(workload)
    setup_times = []
    for i in range(SETUP_REPS):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d)
        seconds, shapes = run_setup(workload, args.seed, d)
        setup_times.append(seconds)
    data_dir = d
    check_dir = os.path.join(work, "check")
    os.makedirs(check_dir)
    workload.write_inputs(DEFAULT_SEED, check_dir)

    # The check pass compares every output with the reference; it also warms up.
    reference_check = Checker(workload, check_dir, ref)
    run_pass(cli, workload, check_dir, reference_check)
    check = Checker(workload, data_dir, ref if args.seed == DEFAULT_SEED else None)
    grid = isinstance(workload, wl.GridWorkload)
    record = {"workload": workload.name, "trace": args.trace,
              "run_seconds": args.seconds, "environment": environment(shapes, args.seed)}

    if args.trace:
        serial, parallel = [], []
        with timing(cli, "grid_search", serial):
            plain_s = run_pass(cli, workload, data_dir, check)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = run_pass(cli, workload, data_dir, check)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.spans, traced_s)
        speedup = 0.0
        if grid:
            with timing(cli, "grid_search", parallel):
                run_pass(cli, workload, data_dir, check, threads=NPROC)
            speedup = sum(serial) / sum(parallel)
        metrics["selection.parallel_speedup"] = (speedup, "ratio")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        residual_ok = metrics["solver.solve_bordered.residual_ratio_max"][0] <= 1.0
        tracer.write(os.path.join(OUT, f"{workload.name}-seed{args.seed}.trace.json"))
        record["passes_s"] = {"plain": plain_s, "traced": traced_s}
    else:
        steps, samples, reference = timed_rounds(cli, workload, data_dir, check, args.seconds)
        seconds = [statistics.median(s for s, _ in ss) for ss in samples]
        ratios = [statistics.median(r for _, r in ss) for ss in samples]

        def total(values, role=None):
            return sum(v for v, step in zip(values, steps) if role in (None, step.role))

        record["steps"] = [
            {"argv": step.argv[:3] + step.argv[-2:], "role": step.role, "rounds": len(ss),
             "median_s": sec, "median_cal": ratio, "min_s": min(s for s, _ in ss),
             "max_s": max(s for s, _ in ss), "samples": ss}
            for step, ss, sec, ratio in zip(steps, samples, seconds, ratios)
        ]
        record["reference_loop_s"] = reference
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_cal": (total(ratios), "cal"),
            "train_cal": (total(ratios, "train"), "cal"),
            "predict_cal": (total(ratios, "predict"), "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        timings = {"wall_s": total(seconds), "train_s": total(seconds, "train"),
                   "predict_s": total(seconds, "predict"),
                   "reference_loop_s": statistics.median(reference)}
        residual_ok = True

    attempted = reference_check.attempted + check.attempted
    failures = reference_check.failures + check.failures
    failed = len(failures)
    correct = failed == 0 and residual_ok
    report = {**check.report(), "fail_frac": failed / attempted}
    if not args.trace:
        report.update(timings)

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    for name, value in report.items():
        if value is not None:
            print(f"{name:44s} {value:.6g} {REPORT_UNITS[name.split('.')[0]]}")
    for f in failures[:20]:
        more = f" (+{len(f['problems']) - 3} more)" if len(f["problems"]) > 3 else ""
        print(f"FAILED {' '.join(f['argv'][:3])}: {'; '.join(f['problems'][:3])}{more}")
    if not residual_ok:
        print("FAILED solver.solve_bordered.residual_ratio_max > 1")

    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures[:100], "setup_times_s": setup_times, "report": report,
        "check_pass": reference_check.report(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
