"""Nothing in the package serves only the tests.

Every public top-level function, class and constant under ``src/`` must
be referenced outside its own definition: in the package, in a
``perfbench/*.py`` script, or in ``scripts/``. A benchmark reference
counts, because ``perfbench/tracer.py`` pins names such as
``("linalg", "solve_upper")`` as strings. Code that only the tests call
belongs in the test suite (the dense references are in
``tests/oracles.py``). Sources are read with ``ast``, not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_rff"
CALLERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]


def public_definitions(tree):
    """(name, node) for each public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def identifiers(node, skip=None):
    """Names, attributes, imported names and string constants under node,
    leaving out the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from identifiers(child, skip)


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in public_definitions(trees[path]):
            if not any(name in set(identifiers(tree, skip=node))
                       for tree in trees.values()):
                unreferenced.append(f"{path.stem}.{name}")
    assert unreferenced == []
