"""Unused-import, dead-private-name, unreferenced-public-name,
unused-parameter, unpassed-default and integer-type-check lints over the
package, using only the standard library."""
import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mezofit"
PERFBENCH = SRC.parent.parent / "perfbench"
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


def referenced_names(source: str) -> set[str]:
    """Each name, attribute and import alias that `source` refers to.
    Assigning a name or an attribute does not count as a use, and neither
    does a mention in a docstring or a comment."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` of each private (`_name`, not dunder) function, method,
    class, module-level constant or `self._name` attribute that no source
    refers to (see `referenced_names`)."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        used |= referenced_names(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "self"):
                defined.append((module, node.attr))
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


def referenced_attributes(source: str) -> set[str]:
    """Each attribute and import alias that `source` refers to: the ways
    code reaches a method, where a bare name would be some other function."""
    return {n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.alias)
            or isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}


def unreferenced_public_names(defining: dict[str, str], referring: list[str]) -> list[str]:
    """`module:name` of each public top-level function and class and each
    public method in `defining` that no source in `defining` or `referring`
    refers to: a top-level name by any reference (see `referenced_names`), a
    method only by an attribute or an import (see `referenced_attributes`)."""
    defined = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defined += [(module, n.name, n is not node) for n in (node, *members)
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    sources = (*defining.values(), *referring)
    used = set().union(*map(referenced_names, sources))
    attributes = set().union(*map(referenced_attributes, sources))
    return sorted(f"{module}:{name}" for module, name, method in defined
                  if not name.startswith("_") and name not in (attributes if method else used))


def test_lint_flags_unreferenced_public_names():
    defining = {
        "a.py": ('"""Mentions orphan."""\n'
                 "def used():\n    return Kept().called()\n"
                 "def orphan():\n    pass\n"
                 "def _private():\n    pass\n"
                 "class Kept:\n    def called(self):\n        return 0\n"
                 "    def unused_method(self):\n        pass\n"
                 "    def __repr__(self):\n        return ''\n"
                 "class Orphan:\n    pass\n"
                 "def assigned_only():\n    pass\n"
                 "other.assigned_only = 1\n"),
        "__init__.py": "from a import Exported\n",
        "b.py": "class Exported:\n    pass\n"
                "def by_bench():\n    pass\n",
    }
    referring = ["from b import by_bench\nused()\n"]
    assert unreferenced_public_names(defining, referring) == [
        "a.py:Orphan", "a.py:assigned_only", "a.py:orphan", "a.py:unused_method"]


def test_lint_does_not_count_a_same_named_function_as_a_use_of_a_method():
    defining = {"a.py": ("class Box:\n    def peak(self):\n        return 0\n"
                         "    def read(self):\n        return 1\n"
                         "    def imported(self):\n        return 2\n")}
    referring = ["def peak(fn):\n    return fn()\npeak(print)\nBox().read()\n",
                 "from a import imported\n"]
    assert unreferenced_public_names(defining, referring) == ["a.py:peak"]


# Public names that only tests call, each with the reason it stays in src/.
# An entry that gains a caller fails the lint too, so the list stays current.
ONLY_TESTS_CALL = [
    "model.py:peak_bytes",  # the shape model that ROADMAP direction 3's `measure` prints
]


def test_no_unreferenced_public_names():
    """Every public name in the package is used by the package or the
    benchmark; code that only the tests call does not belong in src/."""
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    referring = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert unreferenced_public_names(defining, referring) == ONLY_TESTS_CALL


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position, parameter) of each defaulted parameter of each
    public top-level function and public method in `source`. The position
    counts from a call's first argument, so a method's `self` takes none; a
    keyword-only parameter has None."""
    found = []
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for fn in (node, *members):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("_"):
                continue
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)][fn is not node:]
            first = len(positional) - len(a.defaults)
            found += [(fn.name, i, positional[i]) for i in range(first, len(positional))]
            found += [(fn.name, None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
    return found


def unpassed_defaults(defining: dict[str, str], calling: list[str]) -> list[str]:
    """`module:function:parameter` of each defaulted parameter in `defining`
    (see `defaulted_parameters`) that no call in `defining` or `calling`
    passes. A call reaches every function of its callee's name, bare or as an
    attribute, and passes a parameter by keyword or by position; a `*args`
    passes every positional parameter and a `**kwargs` every one."""
    positional: dict[str, float] = {}
    keywords: dict[str, set] = {}
    for source in (*defining.values(), *calling):
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional.get(name, 0),
                                   math.inf if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)  # None: **
    return sorted(f"{module}:{fn}:{p}" for module, source in defining.items()
                  for fn, i, p in defaulted_parameters(source)
                  if not ({p, None} & keywords.get(fn, set())
                          or i is not None and positional.get(fn, 0) > i))


def test_lint_flags_unpassed_defaults():
    defining = {
        "a.py": ('"""g(x=1) in a docstring is no call."""\n'
                 "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                 "def g(x=0):\n    pass\n"
                 "def _private(y=0):\n    pass\n"
                 "class K:\n    def m(self, p=0, q=1):\n        pass\n"
                 "    def _hidden(self, r=0):\n        pass\n"
                 "def splat(s=0, t=1):\n    pass\n"
                 "def spread(u=0):\n    pass\n"
                 "f(0, 1, d=2)\n"),
    }
    calling = ["K().m(5)\nsplat(*args)\nimport a\na.spread(**kw)\n"]
    assert unpassed_defaults(defining, calling) == ["a.py:f:c", "a.py:f:e", "a.py:g:x",
                                                    "a.py:m:q"]


# Defaulted parameters that only tests pass, each with the reason it stays.
# An entry that gains a caller fails the lint too, so the list stays current.
ONLY_TESTS_PASS = [
    "cli.py:main:argv",  # tests drive the console entry point, which reads sys.argv
]


def test_no_defaulted_parameter_that_only_tests_pass():
    """A default that neither the package nor the benchmark ever overrides is
    an option only tests set: a module constant does its work."""
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    calling = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert unpassed_defaults(defining, calling) == ONLY_TESTS_PASS


def int_type_checks(source: str) -> list[int]:
    """Line of each `isinstance(x, int)` or `isinstance(x, bool)` call in
    `source`, either type alone or in a tuple of types."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(k, "id", None) in ("int", "bool") for k in kinds):
                found.append(node.lineno)
    return found


def test_lint_flags_int_type_checks():
    source = ('"""isinstance(doc, int) in a docstring is no call."""\n'
              "isinstance(a, int)\nisinstance(b, (str, bool))\nisinstance(c, float)\n"
              "isinstance(d, numbers.Integral)\nx = int(e)\ntype(f) is int\n")
    assert int_type_checks(source) == [2, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "memory.py"])
def test_only_memory_decides_what_an_integer_setting_is(module):
    """`memory.int_setting` is the one rule for an integer setting (and
    `real_setting` for a real one), so no other module tests for an int or a
    bool itself; `zo.keyed_philox`'s operator.index on Philox keys is no setting."""
    assert int_type_checks((SRC / module).read_text()) == []
