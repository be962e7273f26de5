import ast

import pytest

from conftest import REPO, run_python

SAME_ROUTINES = '''
import sys
import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.spatial.distance import cdist
from trkm import compiled, kernels, solver

assert compiled.flapack is sys.modules["scipy.linalg._flapack"]
assert compiled.fblas is sys.modules["scipy.linalg._fblas"]
assert compiled.distance is sys.modules["scipy.spatial._distance_pybind"]
routines = ("getrf", "getrs", "sytrf", "sytrf_lwork", "sytrs")
lapack = get_lapack_funcs(routines, dtype=np.float64)
assert all(a is getattr(solver, "_" + name) for a, name in zip(lapack, routines)), lapack
assert get_blas_funcs("symv", dtype=np.float64) is solver._symv
rng = np.random.default_rng(7)
left, right = rng.normal(size=(9, 4)), rng.normal(size=(6, 4))
brute = ((left[:, None, :] - right[None, :, :]) ** 2).sum(axis=2)
assert np.allclose(cdist(left, right, "sqeuclidean"), brute, rtol=1e-14, atol=0)
for sigma in (0.3, 1.0, 7.5):
    expected = np.exp(cdist(left, right, "sqeuclidean") / -(2 * sigma * sigma))
    assert np.array_equal(kernels.gram(kernels.gaussian(sigma), left, right), expected)
'''


@pytest.mark.parametrize("first", [
    "import trkm.cli\nimport scipy.linalg, scipy.spatial.distance",
    "import scipy.linalg, scipy.spatial.distance\nimport trkm.cli",
], ids=["trkm-first", "scipy-first"])
def test_trkm_and_scipy_share_one_copy_of_each_routine(first):
    # Either import order leaves one module per extension, whose routines trkm calls.
    run_python(first + SAME_ROUTINES)


def test_scipy_blas_and_lapack_work_after_trkm_loads_their_modules():
    # compiled.load registers _fblas and _flapack in sys.modules without binding them on
    # scipy.linalg, so the attributes scipy.linalg._fblas and ._flapack are missing; the
    # package's own routines must still give correct results.
    run_python('''
import trkm.cli
import numpy as np
from scipy.linalg import blas, get_blas_funcs, lapack

rng = np.random.default_rng(5)
a = rng.normal(size=(7, 7))
a = a + a.T + 14 * np.eye(7)
x = rng.normal(size=7)
assert np.allclose(blas.dsymv(1.0, a, x), a @ x, rtol=1e-13, atol=1e-13)
symv = get_blas_funcs("symv", dtype=np.float64)
assert np.allclose(symv(2.0, np.triu(a), x), 2 * a @ x, rtol=1e-13, atol=1e-13)
assert np.allclose(symv(2.0, np.tril(a), x, lower=1), 2 * a @ x, rtol=1e-13, atol=1e-13)
ldu, piv, info = lapack.dsytrf(a)
assert info == 0
assert np.allclose(a @ lapack.dsytrs(ldu, piv, x)[0], x, rtol=1e-12, atol=1e-12)
''')


def test_without_the_extension_file_the_package_gives_the_module():
    run_python('''
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES = []
from trkm import compiled
from scipy.linalg import _fblas, _flapack
from scipy.spatial import _distance_pybind
assert compiled.flapack is _flapack and compiled.distance is _distance_pybind
assert compiled.fblas is _fblas
assert "scipy.linalg" in sys.modules and "scipy.spatial" in sys.modules
''')


def test_only_the_compiled_module_imports_scipy():
    # Importing a SciPy package costs every command its cold start. trkm.compiled
    # names the three extension modules trkm calls by string and loads their files
    # alone, so no module, that one included, has a scipy import statement.
    importers = []
    for path in sorted((REPO / "src" / "trkm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == [], importers
