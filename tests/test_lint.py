"""Source rules: a validator reuses the package's value rules instead of
copying them. Only `errors.py`, home of `check_int` and `check_real`, may
spell a bool test such as `isinstance(value, bool)`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trackpolicy"


def bool_tests(path):
    """Line numbers of the isinstance calls in path whose type argument
    names bool or a numpy bool."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2 and any(
                    getattr(n, "id", None) == "bool" or getattr(n, "attr", None) in ("bool", "bool_")
                    for n in ast.walk(node.args[1])):
            yield node.lineno


def test_only_errors_py_spells_a_bool_test():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    found = [f"{path.relative_to(PACKAGE)}:{line}" for path in modules
             if path.name != "errors.py" for line in bool_tests(path)]
    assert not found, f"use errors.check_int or errors.check_real instead: {found}"
    assert list(bool_tests(PACKAGE / "errors.py"))
