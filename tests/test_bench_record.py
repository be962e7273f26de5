import importlib.util
import json
from pathlib import Path

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("bench_record", REPO / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SEEDS = range(1, 11)
JITTER = [0.0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0.0]


def write_runs(directory: Path, values: dict, failed: int = 0, seeds=SEEDS) -> None:
    """One ``perfbench/run.py --trace 0`` results file per seed; ``values[name]`` per seed."""
    out = directory / "perfbench" / "out"
    out.mkdir(parents=True)
    for i, seed in enumerate(seeds):
        run = {"workload": "grid_regress", "environment": {"seed": seed}, "correct": True,
               "failed": failed,
               "metrics": {name: {"value": v[i]} for name, v in values.items()}}
        (out / f"grid_regress-seed{seed}-trace0.json").write_text(json.dumps(run))


def around(median: float, scale: float = 1.0) -> list[float]:
    return [median * (1.0 + scale * j) for j in JITTER]


PARENT = {
    "train_cal": around(2.4),
    "wall_cal": around(2.6),
    "predict_cal": around(0.2),
    "setup_s": around(0.7, scale=20.0),  # IQR about 0.27 of the median: wider than the bound
    "peak_rss_mb": around(97.0),
}
CHANGE = {
    "train_cal": around(2.2),                     # better in every pair, by more than the IQR
    "wall_cal": around(3.4),                      # worse by 31%, over the 0.25 bound
    "predict_cal": around(0.2)[::-1],             # the same runs in another order
    "setup_s": around(0.72, scale=20.0),          # within the bound, but the spread is wider
    "peak_rss_mb": [v - 0.05 for v in around(97.0)],  # better in every pair, by less than the IQR
}


def test_record_gives_each_metric_its_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "commit", lambda directory: "0" * 40)
    write_runs(tmp_path / "parent", PARENT)
    write_runs(tmp_path / "change", CHANGE)
    (tmp_path / "change" / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    entry = bench_record.record(str(tmp_path / "parent"), str(tmp_path / "change"))
    metrics = entry["workloads"]["grid_regress"]["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "train_cal": "gain", "wall_cal": "worse", "predict_cal": "within_bound",
        "setup_s": "unresolved", "peak_rss_mb": "within_bound",
    }
    assert metrics["train_cal"]["change_better_pairs"] == 10


@pytest.mark.parametrize("parent, change, failed, expected", [
    # 8 of 10 pairs won is not a gain, however far the medians part
    ([1.0] * 10, [0.9] * 8 + [1.1] * 2, [0, 0], "within_bound"),
    # a win in 9 of 10 pairs is, unless more runs failed
    ([1.0] * 10, [0.9] * 9 + [1.1], [0, 0], "gain"),
    ([1.0] * 10, [0.9] * 9 + [1.1], [0, 1], "within_bound"),
    # a wide spread is unresolved unless every change run beats every parent run
    ([1.0, 2.0] * 5, [0.95, 1.9] * 5, [0, 0], "unresolved"),
    ([1.0, 2.0] * 5, [0.95, 0.99] * 5, [0, 0], "within_bound"),
    # fewer than 10 pairs is never a gain, even if the change won them all
    ([1.0] * 3, [0.9] * 3, [0, 0], "within_bound"),
    ([1.0] * 9, [0.9] * 9, [0, 0], "within_bound"),
])
def test_verdict_rules(parent, change, failed, expected):
    assert bench_record.verdict(parent, change, "lower", 0.25, failed) == expected


def test_verdict_for_a_metric_where_higher_is_better():
    assert bench_record.verdict([1.0] * 10, [1.1] * 10, "higher", 0.25, [0, 0]) == "gain"
    assert bench_record.verdict([1.0] * 10, [0.7] * 10, "higher", 0.25, [0, 0]) == "worse"


def test_a_workload_with_one_pair_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_record, "commit", lambda directory: "0" * 40)
    one = {name: v[:1] for name, v in PARENT.items()}
    write_runs(tmp_path / "parent", one, seeds=[1])
    write_runs(tmp_path / "change", one, seeds=[1])
    (tmp_path / "change" / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    out = tmp_path / "record.json"
    assert bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                              "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: grid_regress: 1 pair of runs")
    assert not out.exists()
