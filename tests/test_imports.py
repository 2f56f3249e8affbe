"""Every imported name is used in the module that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "rstokes").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str):
    """(line, name) of each name an import binds that the module never reads.

    A name counts as read where it appears as an identifier anywhere in the
    module, or as a string in ``__all__``; scopes are not told apart.
    """
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Callable, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Callable")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
