"""The three compiled SciPy modules trkm calls, loaded without their packages.

``flapack`` is ``scipy.linalg._flapack``, whose ``dgetrf``/``dgetrs`` and
``dsytrf``/``dsytrf_lwork``/``dsytrs`` are the objects ``get_lapack_funcs``
returns; ``fblas`` is ``scipy.linalg._fblas``, whose ``dsymv`` is what
``get_blas_funcs("symv")`` returns; and ``distance`` is
``scipy.spatial._distance_pybind``, whose ``cdist_sqeuclidean`` is what
``cdist(..., "sqeuclidean")`` runs. On a 2-core x86-64 VM, importing
``scipy.linalg`` and ``scipy.spatial`` costs about 0.4 s (sparse matrices,
kd-trees, qhull) that trkm never calls, while ``_flapack`` and
``_distance_pybind`` each load alone in about 10 ms and ``_fblas`` in about
2 ms. This is the only module of trkm that names SciPy.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def load(name: str):
    """The extension ``name``: the one already imported, else its file, loaded alone and
    registered under ``name`` so that its package reuses it; without the file, the package's."""
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(root, *name.split(".")[1:])
    for path in (stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            spec = importlib.util.spec_from_file_location(name, path, loader=loader)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    return importlib.import_module(name)


flapack = load("scipy.linalg._flapack")
fblas = load("scipy.linalg._fblas")
distance = load("scipy.spatial._distance_pybind")
