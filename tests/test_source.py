"""Source-level guards on the exactness promise and on dead code.

`assert` statements vanish under `python -O`, so library checks must raise.
Floats appear only where they are wall-clock limits or sampling
probabilities: budget.py, cli.py and verify.py.  Every import in the
library is used, and every function, class and method it defines is named
somewhere besides its own definition and its own module's __all__: in the
library, the tests or the benchmark.  Every parameter a library function
takes is read in its body.
"""

import ast
import pathlib
import re

import pytest

from linfam.verify import CRITERIA

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linfam"
FLOATS_ALLOWED = {"budget.py", "cli.py", "verify.py"}
MODULES = sorted(SRC.glob("*.py"))
CORPUS = sorted(p for d in (SRC, ROOT / "tests", ROOT / "perfbench")
                for p in d.glob("*.py"))


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_and_no_float(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert asserts == [], f"assert statements at lines {asserts}"
    if path.name not in FLOATS_ALLOWED:
        floats = list(_floats(tree))
        assert floats == [], f"floats at lines {floats}"


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and {"extremal.py", "fourier.py"} <= {
        p.name for p in MODULES}


def _all_node(tree):
    """A module's __all__ assignment, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return node
    return None


def _exported(tree):
    """Names listed in a module's __all__."""
    node = _all_node(tree)
    if node is None:
        return set()
    return {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used | _exported(tree))
    assert unused == [], f"unused imports (line, name): {unused}"


def _definitions(path):
    """(line, name, is_method) of the non-dunder top-level functions and
    classes of a module and of the methods of its top-level classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.lineno, node.name, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield sub.lineno, sub.name, True


def test_every_definition_is_named_elsewhere():
    lines = [(p, i, text) for p in CORPUS
             for i, text in enumerate(p.read_text().splitlines(), 1)]
    unused = []
    for path in MODULES:
        # listing a name in its own module's __all__ is no use of it
        node = _all_node(ast.parse(path.read_text(), filename=str(path)))
        own = set() if node is None else {
            (path, i) for i in range(node.lineno, node.end_lineno + 1)}
        for lineno, name, method in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            # a method is reached as an attribute, anything else by name
            word = re.compile((r"\." if method else r"\b") + name + r"\b")
            if not any(word.search(text) for p, i, text in lines
                       if (p, i) != (path, lineno) and (p, i) not in own):
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == [], f"defined but never named: {unused}"


def _unread_parameters(path):
    """(line, function, parameter) for each parameter that a function's body
    never reads; self and cls are bound by the call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in params:
                if p.arg not in read | {"self", "cls"}:
                    yield node.lineno, node.name, p.arg


def test_every_parameter_is_read():
    # the criteria share the signature that verify.run_criterion calls
    dispatched = {("verify.py", f.__name__) for f in CRITERIA.values()}
    unread = [f"{path.name}:{line} {name}({arg})" for path in MODULES
              for line, name, arg in _unread_parameters(path)
              if (path.name, name) not in dispatched]
    assert unread == [], f"parameters never read: {unread}"
