"""Rules on the package source, checked on its syntax trees: one module writes files, one
module reads CSV, one lays out kernel blocks, one class picks their layout by order, and one
module calls LAPACK, through five routines, and BLAS, through one, and one takes
eigendecompositions."""

import ast

from conftest import REPO

SOURCES = sorted((REPO / "src" / "trkm").glob("*.py"))

# Calls that create or write a file whatever their arguments.
WRITERS = {"write_text", "write_bytes", "tofile", "savetxt", "mkstemp", "NamedTemporaryFile"}

# Names of the row blocks a kernel block's (n+1)^2 array is built, formed and read in.
LAYOUT = {"row_blocks", "ROW_BLOCK_BYTES", "bordered_gram"}


# The LAPACK routines of ``compiled.flapack`` the solver factors and solves with.
LAPACK = {"dgetrf", "dgetrs", "dsytrf", "dsytrf_lwork", "dsytrs"}

# The BLAS routine of ``compiled.fblas`` a formed kernel block multiplies by.
BLAS = {"dsymv"}


def called(node):
    """The name a call is made by: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def opens_for_writing(node):
    """Whether a call writes a file: one of ``WRITERS``, or an ``open`` or ``fdopen`` whose
    mode (``mode=`` or its second argument, "r" if neither) is not a literal read mode."""
    name = called(node)
    if name in WRITERS:
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                node.args[1] if len(node.args) > 1 else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def reads_csv(node):
    """Whether a node calls or imports ``csv.reader``."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" and any(alias.name == "reader" for alias in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reader" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "csv")


def knows_block_layout(node):
    """Whether a node names one of ``LAYOUT`` (used, imported or defined) or calls the
    ``KernelBlock`` constructor on an array it laid out itself."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    return name in LAYOUT or (isinstance(node, ast.Call) and called(node) == "KernelBlock")


def imports(module):
    """Whether a node imports ``module`` by name (``from .compiled import flapack``)."""
    return lambda node: (isinstance(node, ast.ImportFrom)
                         and any(a.name == module for a in node.names))


def reads_off(path, module):
    """The names a module reads off ``compiled.<module>``: each ``<module>.name`` and
    ``compiled.<module>.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and module in (getattr(node.value, "id", None), getattr(node.value, "attr", None))}


def loads_of(name):
    """(module, top-level class or None) of each place ``name`` is read, as a name or an
    attribute."""
    return {(path.stem, top.name if isinstance(top, ast.ClassDef) else None)
            for path in SOURCES for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and name in (getattr(node, "id", None), getattr(node, "attr", None))}


def modules_where(rule):
    """The package modules, by stem, with a node the rule holds for."""
    return {path.stem for path in SOURCES
            if any(rule(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}


def test_only_model_io_opens_a_file_for_writing():
    # model_io.write_atomic writes through a temp file and a rename, so no reader sees a
    # half-written table, model or data file; every other module writes through it.
    assert modules_where(lambda node: isinstance(node, ast.Call) and opens_for_writing(node)) \
        == {"model_io"}


def test_only_data_reads_csv():
    assert modules_where(reads_csv) == {"data"}


def test_only_solver_knows_the_kernel_block_layout():
    # solver.KernelBlock builds, forms and reads its array; the model modules call
    # KernelBlock.of, and kernels only evaluates kernels.
    assert modules_where(knows_block_layout) == {"solver"}


def test_only_the_kernel_block_reads_the_order_that_picks_its_layout():
    # KernelBlock decides from its order where its systems are formed and how they are
    # factored; solve_bordered asks the block.
    assert loads_of("LDL_MIN_ORDER") == {("solver", "KernelBlock")}


def test_only_solver_reads_eigh():
    # solver.solve_spectral takes one eigh per kernel block and shares it among the block's
    # systems; a caller that read eigh would be deciding that sharing itself.
    assert loads_of("eigh") == {("solver", None)}


def test_only_solver_reads_lapack_and_only_its_factor_and_solve_routines():
    # A LAPACK routine outside the solver's LU and LDL^T factor and solve, such as a
    # condition estimate, is a cost no gate reads.
    assert modules_where(imports("flapack")) == {"solver"}
    reads = {(path.stem, name) for path in SOURCES for name in reads_off(path, "flapack")}
    assert reads == {("solver", name) for name in LAPACK}


def test_only_solver_reads_blas_and_only_its_symmetric_product():
    # A formed kernel block's K h reads the triangle that keeps K by dsymv; every other
    # product is numpy's.
    assert modules_where(imports("fblas")) == {"solver"}
    reads = {(path.stem, name) for path in SOURCES for name in reads_off(path, "fblas")}
    assert reads == {("solver", name) for name in BLAS}
