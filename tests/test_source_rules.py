"""Rules on the package source, checked on its syntax trees: one module writes files and
one module reads CSV."""

import ast

from conftest import REPO

SOURCES = sorted((REPO / "src" / "trkm").glob("*.py"))

# Calls that create or write a file whatever their arguments.
WRITERS = {"write_text", "write_bytes", "tofile", "savetxt", "mkstemp", "NamedTemporaryFile"}


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
