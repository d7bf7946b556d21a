import ast
from pathlib import Path

import dmdst

PACKAGE = Path(dmdst.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module's import statements bind but its code never reads.

    A name counts as read when it appears as a Name node anywhere in the
    module, annotations included; `from __future__` imports bind nothing
    the code reads and are left out.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    """Every module of the package other than __init__.py, whose imports
    are its public names, reads each name it imports; the check itself
    flags a leftover import."""
    leftover = "from bisect import bisect_left\nfrom itertools import chain, islice\nchain()\n"
    assert unused_imports(leftover) == ["bisect_left (line 1)", "islice (line 2)"]
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
