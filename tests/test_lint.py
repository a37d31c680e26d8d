"""Source rules: a validator reuses the package's value rules instead of
copying them. Only `errors.py`, home of `check_int` and `check_real`, may
spell a bool test such as `isinstance(value, bool)`. A table derived from a
value lives on that value, so a module-level functools cache is added to
`CACHE_ALLOWLIST` on purpose or not at all."""

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


# the module-level caches the package keeps on purpose, each keyed by a
# small set of values; a table derived from a value lives on that value
CACHE_ALLOWLIST = {"sim.robot_embodiment", "sim.human_embodiment", "sim.default_cameras",
                   "policy._seed_noise"}


def is_cache(decorator):
    """True iff decorator is functools.lru_cache or functools.cache, bare,
    called, or imported by name."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def cached_functions(path):
    """Dotted names, from the package root, of path's functions and methods
    that a functools cache decorates."""
    prefix = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(map(is_cache,
                                                                   child.decorator_list)):
                    yield name
                yield from walk(child, name)

    yield from walk(ast.parse(path.read_text(), str(path)), prefix)


def test_only_allowlisted_functions_are_cached():
    found = {name for path in sorted(PACKAGE.rglob("*.py")) for name in cached_functions(path)}
    assert not found - CACHE_ALLOWLIST, \
        f"keep a derived table on the value it derives from: {sorted(found - CACHE_ALLOWLIST)}"
    # the list names only caches that exist
    assert found == CACHE_ALLOWLIST
