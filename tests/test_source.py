"""Source-level guards on the exactness promise.

`assert` statements vanish under `python -O`, so library checks must raise.
Floats appear only where they are wall-clock limits or sampling
probabilities: budget.py, cli.py and verify.py.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "linfam"
FLOATS_ALLOWED = {"budget.py", "cli.py", "verify.py"}
MODULES = sorted(SRC.glob("*.py"))


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
