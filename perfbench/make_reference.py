"""Write the stored reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload on the inputs of the default seed with the
trkm sources of this checkout, and writes per grid cell the error status and
fold scores, and every prediction, to
``perfbench/reference/<workload>.json``. Regenerate only when a change to
the program's outputs is intended and explained.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads as wl


def outputs(workload, d, check):
    if check.failures:
        raise SystemExit(f"the pass failed: {check.failures[0]}")
    out = {"cells": {}, "predictions": {}}
    for step in workload.commands(d, 1):
        path = os.path.join(d, step.output)
        if step.argv[0] == "gridsearch":
            out["cells"].update(
                (wl.cell_key(cell["params"]), {"error": bool(cell["error"]),
                                               "fold_scores": cell["fold_scores"]})
                for cell in wl.read_grid(path)["cells"]
            )
        elif step.role == "predict":
            out["predictions"][step.output] = wl.read_predictions(path)
    if not out["cells"]:
        del out["cells"]
    return out


def main(names):
    cli = run.import_program()
    for name in names or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        os.makedirs(run.OUT, exist_ok=True)
        d = tempfile.mkdtemp(dir=run.OUT)
        try:
            workload.write_inputs(run.DEFAULT_SEED, d)
            check = run.Checker(workload, d)
            run.run_pass(cli, workload, d, check)
            ref = {"seed": run.DEFAULT_SEED, "rtol": wl.RTOL, "atol": wl.ATOL}
            ref.update(outputs(workload, d, check))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(run.REFERENCE, exist_ok=True)
        with open(os.path.join(run.REFERENCE, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote reference for {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
