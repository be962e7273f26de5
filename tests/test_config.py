"""The benchmark-config checker: against its oracle, through ``main``, and against README."""

import contextlib
import copy
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REPO
from trkm import cli
from trkm.cli import _checked_config, _Plan, main
from trkm.synthetic import blobs, write_classification_csv

POSITIVE = st.sampled_from([1e-5, 0.01, 0.5, 1, 2.0, 1e5])
NAMES = ["A", "B-2", "trkm c", "x.y"]
PATHS = ["a.csv", "data/b.csv", "c d.csv", "e,f.csv"]  # a path with a comma needs a name
COLUMNS = st.one_of(st.sampled_from(["label", "y", "0", "12", "-1"]), st.integers(0, 5))
# what a mutation puts in place of a value, or under a new key
OTHER_VALUES = [None, True, False, 0, -1, 1, 2, 1.5, "x", "", "0.7", [], [1.0], [0, -1], ["x"],
                {}, {"gamma": 1.0}]
OTHER_KEYS = ["extra", "sigma", "seeds", "label_column", "target_column", "grid", "kind", "gammas"]


def optional(draw, obj: dict, key: str, values) -> None:
    """Give ``obj[key]`` a drawn value, or leave the key to its default."""
    if draw(st.booleans()):
        obj[key] = draw(values)


@st.composite
def model_configs(draw, name: str, task: str):
    kind = draw(st.sampled_from(["trkm", "rkm"] if task == "classify" else ["trkm"]))
    model = {"name": name}
    if kind == "rkm" or draw(st.booleans()):
        model["kind"] = kind
    if draw(st.booleans()):
        fixed = model["fixed"] = {key: draw(POSITIVE) for key in ("gamma", "eta", "sigma")}
        if kind == "trkm":
            optional(draw, fixed, "gamma2", POSITIVE)
            optional(draw, fixed, "eta2", POSITIVE)
    elif draw(st.booleans()):
        grid = model["grid"] = {}
        for key in ("gamma", "eta", "sigma"):
            optional(draw, grid, key, st.lists(POSITIVE, min_size=1, max_size=3))
        optional(draw, grid, "equal_penalties", st.booleans() if kind == "trkm" else st.just(True))
        optional(draw, grid, "folds", st.integers(2, 10))
    return model


@st.composite
def valid_configs(draw):
    """A config that README's key table allows: each key given a valid value or left out."""
    task = draw(st.sampled_from(["classify", "regress"]))
    cfg = {}
    if task == "regress" or draw(st.booleans()):
        cfg["task"] = task
    optional(draw, cfg, "seed", st.integers(0, 10))
    optional(draw, cfg, "normalize", st.booleans())
    if draw(st.booleans()):
        split = cfg["split"] = {}
        optional(draw, split, "seeds", st.lists(st.integers(0, 10), min_size=1, max_size=3))
        optional(draw, split, "train_fraction", st.floats(0.05, 0.95))
        optional(draw, split, "stratified", st.booleans())
    column = "label_column" if task == "classify" else "target_column"
    cfg["datasets"] = []
    for _ in range(draw(st.integers(1, 2))):
        dataset = {"path": draw(st.sampled_from(PATHS)), column: draw(COLUMNS)}
        if "," in dataset["path"] or draw(st.booleans()):
            dataset["name"] = draw(st.sampled_from(NAMES))
        optional(draw, dataset, "delimiter", st.sampled_from([",", ";", "\t"]))
        optional(draw, dataset, "header", st.booleans())
        cfg["datasets"].append(dataset)
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=3, unique=True))
    cfg["models"] = [draw(model_configs(name, task)) for name in names]
    return cfg


def positions(node, path=""):
    """(key path, container, key) of every value under ``node``, parents first."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        yield where, node, key
        yield from positions(value, where)


@st.composite
def configs(draw):
    """A valid config, or one with a key removed, an unknown key added or a value replaced."""
    cfg = draw(valid_configs())
    change = draw(st.sampled_from(["none", "remove", "add", "replace"]))
    spots = list(positions(cfg))
    if change == "remove":
        _, container, key = draw(st.sampled_from(spots))
        del container[key]
    elif change == "add":
        objects = [cfg] + [container[key] for _, container, key in spots
                           if isinstance(container[key], dict)]
        obj = draw(st.sampled_from(objects))
        obj[draw(st.sampled_from(OTHER_KEYS))] = copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))
    elif change == "replace":
        _, container, key = draw(st.sampled_from(spots))
        container[key] = copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))
    return cfg


def outcome(check, cfg):
    """A checker's plan of ``cfg``, or its refusal as the line the CLI prints."""
    try:
        return check(cfg, 7)
    except ValueError as exc:
        return f"error: {exc}"


# The keys whose refusals now name them, with the rule each states.
RENAMED = re.compile(r"error: (split\.train_fraction|models\[\d+\]\.grid\.(gamma|eta|sigma|folds)): ")
RULE = {"train_fraction": "a number in (0, 1)", "folds": "an integer of at least 2",
        **dict.fromkeys(("gamma", "eta", "sigma"), "a non-empty list of finite positive numbers")}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cfg=configs())
def test_checker_gives_its_oracles_plan_or_message(cfg):
    got, want = outcome(_checked_config, cfg), outcome(oracles.checked_config, cfg)
    if isinstance(want, _Plan):
        assert type(got) is _Plan and got == want
    elif got != want:
        # a grid list, folds or train_fraction: the oracle named the object, or a looser rule
        match = RENAMED.match(got)
        assert match and isinstance(want, str), (got, want)
        path = match[1]
        parent, key = path.rsplit(".", 1)
        value = next(container[k] for where, container, k in positions(cfg) if where == path)
        assert got == f"error: {path}: expected {RULE[key]}, got {value!r}"
        assert want.startswith((f"error: {path}: ", f"error: {parent}: {key}")), want


# ---------------------------------------------------------------------------
# the config path through main()

FIXED = {"gamma": 0.1, "eta": 0.01, "sigma": 1.0}
# an error line names a key path, when it names no file
KEY_PATH = re.compile(r"error: (task|seed|normalize|split|datasets|models)(\[\d+\])?(\.\w+)*: ")


def write_inputs(directory: Path, config: str, kinds: list[str], noise: bytes):
    """Write a benchmark config of the datasets ``kinds`` and its files; (config, files)."""
    files = {kind: directory / f"{kind}.csv" for kind in ("good", "missing", "latin1", "one_label")}
    write_classification_csv(str(files["good"]), *blobs(12, 4.0, seed=0))
    files["latin1"].write_bytes(b"f0,label\n0.5,caf\xe9\n0.7,x\n")
    files["one_label"].write_text("f0,label\n0.1,a\n0.5,a\n0.9,a\n")
    text = json.dumps({
        "datasets": [{"name": f"ds{i}", "path": str(files[kind]), "label_column": "label"}
                     for i, kind in enumerate(kinds)],
        "models": [{"name": "TRKM-C", "fixed": FIXED}, {"name": "RKM", "kind": "rkm",
                                                         "fixed": FIXED}],
    }).encode()
    path = directory / "bench.json"
    path.write_bytes({"json": text, "truncated": text[:len(text) // 2] + noise, "noise": noise,
                      "latin1": b"\xff" + text, "deep": b"[" * 100_000}[config])
    return path, list(files.values())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=st.sampled_from(["json", "truncated", "noise", "latin1", "deep"]),
       kinds=st.lists(st.sampled_from(["good", "missing", "latin1", "one_label"]),
                      min_size=1, max_size=3),
       noise=st.binary(max_size=12))
def test_config_path_exits_with_a_documented_code_naming_its_fault(config, kinds, noise):
    with tempfile.TemporaryDirectory() as tmp:
        path, files = write_inputs(Path(tmp), config, kinds, noise)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--output-dir", str(out), "benchmark", "--config", str(path)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
        for line in err.getvalue().splitlines():
            assert any(str(p) in line for p in [path, *files]) or KEY_PATH.match(line), line
        assert code == 0 or not out.exists()


# ---------------------------------------------------------------------------
# README's config key table

def readme_key_paths() -> list[str]:
    lines = (REPO / "README.md").read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index("| key | must be | default |") + 2:])
    return [re.match(r"\| `([^`]+)` \|", row)[1] for row in rows]


def test_readme_lists_exactly_the_keys_the_checker_reads():
    tables = [("", cli._TOP_KEYS), ("split.", cli._SPLIT_KEYS),
              *(("datasets[i].", table) for table in cli._DATASET_KEYS.values()),
              ("models[i].", cli._MODEL_KEYS), ("models[i].fixed.", cli._FIXED_KEYS),
              ("models[i].grid.", cli._GRID_KEYS)]
    documented = readme_key_paths()
    assert len(documented) == len(set(documented))
    assert set(documented) == {prefix + key for prefix, table in tables for key, _, _ in table}
