"""No module under ``src/repro`` or ``tests/`` imports a name it never reads.

A scan with the standard library's ``ast`` module, so it needs no
linter.  A name counts as read when the module loads it anywhere, names
it inside a string annotation (an import kept for type checking only),
or lists it in ``__all__``.  Exempt: the package ``__init__.py`` files,
whose imports are the public re-exports, and the ``from . import ...``
statement of ``experiments/runner.py``, which imports each experiment
module to register it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
TESTS = ROOT / "tests"
REGISTRATION_MODULE = Path("experiments", "runner.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def read_names(tree):
    """Every name the module reads, in code, string annotations or ``__all__``."""
    names = _names_in(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_in(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= {
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return names


def unused_imports(source, relative_path=Path("module.py")):
    """``(line, name)`` for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    read = read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if relative_path == REGISTRATION_MODULE and node.module is None:
                continue
            bound = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        unused += [(node.lineno, name) for name in bound if name not in read]
    return sorted(unused)


def test_scan_tells_unused_from_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "from .model import Soc, Core\n"
        "if TYPE_CHECKING:\n"
        "    from .session import Runtime\n"
        "__all__ = ['Core']\n"
        "def f(runtime: Optional['Runtime']) -> Dict[str, int]:\n"
        "    return codec.loads('{}')\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "List"), (5, "Soc")]
    registration = "from . import ablation, tam\nfrom .registry import get\n"
    assert unused_imports(registration, REGISTRATION_MODULE) == [(2, "get")]
    assert unused_imports(registration) == [
        (1, "ablation"), (1, "tam"), (2, "get"),
    ]


def unused_under(root):
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 50
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in modules
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(), path.relative_to(root))
    ]


def test_no_module_imports_a_name_it_never_reads():
    assert unused_under(PACKAGE) == []


def test_no_test_module_imports_a_name_it_never_reads():
    assert unused_under(TESTS) == []
