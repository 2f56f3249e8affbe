"""Every imported name is used in the module that imports it, and every
private name the package defines is read by one of its modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rstokes").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources):
    """(module, line, name) of each private name that ``sources`` (a mapping
    of module name to source) define and none of them reads.

    The names are module-level functions, classes and constants, and the
    methods of module-level classes.  A name counts as read where it is
    loaded as an identifier or an attribute, or imported, in any of the
    modules; scopes and owners are not told apart.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined += [(module, node.lineno, t.id) for t in node.targets
                            if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.append((module, node.lineno, node.target.id))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [(module, line, name) for module, line, name in defined
            if _private(name) and name not in read]


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SPARE = 4\n\n"
             "def _dead():\n    pass\n\n"
             "class Box:\n    def _live(self):\n        return _LIMIT\n"
             "    def _stale(self):\n        pass\n"
             "    def __len__(self):\n        return self._live()\n",
        "b": "from a import _helper\n_helper()\n",
        "c": "def _helper():\n    return 1\n",
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_SPARE"), ("a", 4, "_dead"), ("a", 10, "_stale"),
    ]


def test_every_private_name_of_the_package_is_read():
    found = [
        f"src/rstokes/{module}:{line}: {name}"
        for module, line, name in unread_private_names(
            {path.name: path.read_text() for path in PACKAGE})
    ]
    assert not found, "private names nothing reads:\n" + "\n".join(found)
