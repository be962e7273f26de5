"""One benchmark set-up, timed by its caller in a fresh interpreter.

    python3 perfbench/setup_inputs.py WORKLOAD SEED DIR

Imports the program, makes the workload's inputs from SEED and writes them
as CSV files into DIR; prints the input shapes as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import trkm.cli  # noqa: E402,F401  (import cost is part of set-up)

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(workloads.WORKLOADS[name].write_inputs(seed, directory)))
