"""Unused-import lint over the package, using only the standard library."""
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
