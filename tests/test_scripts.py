import os
import subprocess
import sys

from conftest import DATA_DIR, REPO


def run_script(name, *args, cwd):
    src = str(REPO / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_scripts_run_and_regenerate_the_committed_datasets(tmp_path):
    # Nothing else runs these scripts, so a change to a module they import shows here.
    made = run_script("make_datasets.py", "--output-dir", str(tmp_path / "synthetic"),
                      cwd=tmp_path)
    assert made.returncode == 0, made.stderr
    for name in ("crossplane130.csv", "blobs.csv", "sine.csv"):
        assert ((tmp_path / "synthetic" / name).read_bytes()
                == (DATA_DIR / "synthetic" / name).read_bytes()), name
    for name, *args in (("replicate_published_stats.py",),
                        ("run_benchmark_demo.py", "--output-dir", str(tmp_path / "demo"))):
        done = run_script(name, *args, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
