import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

# Every run draws the same Hypothesis examples, so a red run repeats; no test has a deadline.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data"


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports trkm from this checkout and, as pytest
    does here, turns a RuntimeWarning into an error; its stdout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def counting(monkeypatch, *names):
    """Count the calls of each named function of trkm.solver (a LAPACK routine or
    ``solve_bordered``), which still runs."""
    import trkm.solver

    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _exact=getattr(trkm.solver, name), **kwargs):
            counts[_name] += 1
            return _exact(*args, **kwargs)
        monkeypatch.setattr(trkm.solver, name, counted)
    return counts


def system_values(model, X):
    """Each system's decision value at the rows of X (g1, g2 of TRKM, RKM's one score): the
    terms ``Model.total`` sums, from the kind's own ``decision_terms``."""
    fields, hp = model.fields, model.hyperparams
    stored = tuple(fields[name] for name in model.type.rows)
    terms = model.type.module.decision_terms(stored, model.kernel, np.asarray(X, dtype=float))
    return tuple(term.value(fields[f"h{s}"], hp[f"gamma{s}"], fields[f"b{s}"])
                 for term, s in zip(terms, model.type.suffixes))


def random_two_class(rng, n_max=30, m_max=6):
    """A random binary problem with both classes present."""
    n = int(rng.integers(6, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    x = rng.normal(size=(n, m))
    y = rng.choice([-1, 1], size=n)
    y[0], y[1] = 1, -1  # guarantee both classes
    return x, y
