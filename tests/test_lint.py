"""Unused-import, dead-private-name and unused-parameter lints over the
package, using only the standard library."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mezofit"
# __init__.py only re-exports, so its imports are its interface
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references in code (mentions in
    docstrings, comments and string annotations do not count)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_lint_flags_unused_imports():
    source = ('"""Mentions accuracy and Iterable."""\n'
              "import os\nimport numpy as np\nfrom typing import Iterable, Sequence\n"
              "from mezofit.tasks import accuracy\n"
              "def f(x: Sequence[int]) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["os", "Iterable", "accuracy"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` of each private (`_name`, not dunder) function, method,
    class, module-level constant or `self._name` attribute that no name,
    attribute or import alias in any of the sources refers to. Assigning a
    name or an attribute does not count as a use."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                defined.append((module, node.attr))
            elif isinstance(node, ast.alias):
                used.add(node.name)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(module, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return sorted(f"{module}:{name}" for module, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in used)


def test_lint_flags_dead_private_names():
    sources = {
        "a.py": ("_USED, _DEAD = 1, 2\n_IMPORTED = 3\n"
                 "def _helper():\n    return _USED\n"
                 "class _Box:\n    def __init__(self):\n        self._dead_attr = 0\n"
                 "        self._kept, self._stale = 1, 2\n        other._set_elsewhere = 3\n"
                 "    def _method(self):\n        return self._called() + self._kept\n"
                 "    def _called(self):\n        return 0\n"
                 "def public():\n    return _Box()._method()\n"),
        "b.py": '"""Mentions _dead_fn."""\nfrom a import _IMPORTED\n_DEAD = 0\n'
                "def _dead_fn():\n    pass\n",
    }
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_dead_attr", "a.py:_helper",
                                           "a.py:_stale", "b.py:_DEAD", "b.py:_dead_fn"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


def unused_parameters(source: str) -> list[str]:
    """`function:parameter` of each parameter (`self` and `cls` aside) that
    its function's body, nested functions included, never reads. Assigning
    to a parameter does not count as a use."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        names = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                 if p is not None and p.arg not in ("self", "cls")]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        name = getattr(node, "name", "<lambda>")
        unused += [f"{name}:{p}" for p in names if p not in read]
    return sorted(unused)


def test_lint_flags_unused_parameters():
    source = ('"""Mentions dead."""\n'
              "def f(a, b, *args, c, d=1, **kw):\n    return a + c + len(kw)\n"
              "def outer(x, y):\n    def inner(z, w):\n        return x + z\n"
              "    y = 2\n    return inner\n"
              "class K:\n    def m(self, dead):\n        pass\n"
              "    @classmethod\n    def k(cls, used: int = 0):\n        return used\n"
              "g = lambda p, q: p\n")
    assert unused_parameters(source) == ["<lambda>:q", "f:args", "f:b", "f:d", "inner:w",
                                         "m:dead", "outer:y"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters((SRC / module).read_text()) == []
