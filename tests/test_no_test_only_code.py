"""No production module carries code that only its tests call.

Every top-level function and class of src/sgefem, and every method that
is not a dunder, must be referenced from src/sgefem or perfbench/: by a
name or an attribute, or through the module and attribute strings of the
tracer's TARGETS, which wraps functions by name.  A method that overrides
one of a base class (argparse's ``error``) is reached through the base.
A definition only the tests reach belongs in tests/oracles.py.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sgefem").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def definitions(tree):
    """(name, line) of the top-level functions and classes and of the
    methods of those classes that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item.lineno


def references(tree):
    """Names and attribute names read anywhere in the module, plus each
    dotted part of the strings of a TARGETS assignment."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) \
                        and isinstance(const.value, str):
                    found.update(const.value.split("."))
    return found


def test_sources_and_tracer_targets_are_found():
    assert len(SOURCES) > 5 and (ROOT / "perfbench" / "tracer.py") \
        in PERFBENCH
    refs = references(_parse(ROOT / "perfbench" / "tracer.py"))
    # a Class.method target of the tracer counts for both parts
    assert {"AnalyticField", "jets", "solve_saddle"} <= refs


def overrides(module, qualname):
    """Whether the method ``Class.name`` of ``module`` overrides one of
    a base class."""
    if "." not in qualname:
        return False
    cls_name, name = qualname.split(".")
    cls = getattr(importlib.import_module(module), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_definition_is_used_outside_the_tests():
    refs = set()
    for path in SOURCES + PERFBENCH:
        refs |= references(_parse(path))
    unused = []
    for path in SOURCES:
        module = "sgefem." + path.stem
        for name, line in definitions(_parse(path)):
            if name.rsplit(".", 1)[-1] not in refs \
                    and not overrides(module, name):
                unused.append("%s:%d %s" % (path.name, line, name))
    assert not unused, "defined in src/ but read only by tests: %s" \
        % ", ".join(unused)
