"""Design checks on the package source: no helper exists that only tests
call."""

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
