"""Design checks on the package source: no helper exists that only tests
call, and no module imports a name it does not use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "numasim"

# definitions nothing in src/ references, each with why it stays
CALLED_FROM_OUTSIDE = {
    # perfbench/layertrace.py patches the engine's binding of every leaf
    # mutation; the engine prices this one inline
    "clear_access_hint",
    # argparse calls it on a bad command line
    "_Parser.error",
}


# module.name imports nothing in the module uses, each with why it stays
UNUSED_IMPORTS = {
    # perfbench/test_bench.py asserts the engine binds every leaf mutation
    # its layer trace patches; the engine prices this one inline
    "engine.clear_access_hint",
    # perfbench/test_bench.py asserts the MMU binds the traced function;
    # a fault's walk leaves its reads for the engine to price
    "mmu.access_latency",
}


def definitions(body, prefix=""):
    """(qualified name, name) of every def and class in body, nested ones
    included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node.name
            yield from definitions(node.body, qualname + ".")


def test_every_definition_is_referenced_from_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {
        qualname for tree in trees for qualname, name in definitions(tree.body)
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced == CALLED_FROM_OUTSIDE


def test_every_imported_name_is_used_in_its_module():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    assert unused == UNUSED_IMPORTS
