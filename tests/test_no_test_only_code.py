"""No production module carries code that only its tests call.

Every top-level function and class of src/sgefem, every method that is
not a dunder and every property a class binds by ``name = property(...)``
must be referenced from src/sgefem or perfbench/: by a name or an
attribute, or through the module and attribute strings of the tracer's
TARGETS, which wraps functions by name.  A method that overrides
one of a base class (argparse's ``error``) is reached through the base.
Every instance attribute a src/sgefem class sets (``self.x = ...``) must
be read as an attribute in src/sgefem or perfbench/; the payload of an
exception class is fault data for whoever catches it, and is exempt.
A definition only the tests reach belongs in tests/oracles.py.
No src/sgefem module reads a single-underscore name of another
sgefem module, by import or as a module attribute; private modules
(``_dunavant``) may be imported.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sgefem").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _is_property(node):
    """Whether ``node`` is a class-level ``name = property(...)``."""
    return isinstance(node, ast.Assign) and len(node.targets) == 1 \
        and isinstance(node.targets[0], ast.Name) \
        and isinstance(node.value, ast.Call) \
        and isinstance(node.value.func, ast.Name) \
        and node.value.func.id == "property"


def definitions(tree):
    """(name, line) of the top-level functions and classes and of the
    methods of those classes that are not dunders, with the properties
    they bind by ``name = property(...)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield "%s.%s" % (node.name, item.name), item.lineno
                elif _is_property(item):
                    yield "%s.%s" % (node.name, item.targets[0].id), \
                        item.lineno


def test_definitions_include_bound_properties():
    # a pass-through bound by property() is a definition like a method
    tree = ast.parse("class S:\n    x = 1\n    a = property(lambda s: 1)\n"
                     "    def f(self):\n        pass\n")
    assert list(definitions(tree)) == [("S", 1), ("S.a", 3), ("S.f", 4)]
    assert "a" not in references(tree)


def references(tree):
    """Names and attribute names read anywhere in the module, plus each
    dotted part of the strings of a TARGETS assignment.  A name that is
    only bound (the target of ``name = property(...)``) is not read."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def instance_attributes(tree):
    """(class name, attribute, line) of every ``self.x = ...`` in the
    top-level classes, including tuple and augmented assignments."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for el in getattr(target, "elts", [target]):
                    if isinstance(el, ast.Attribute) \
                            and isinstance(el.value, ast.Name) \
                            and el.value.id == "self":
                        yield cls.name, el.attr, el.lineno


def attribute_reads(tree):
    """Attribute names read (loaded) anywhere in the module."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_instance_attributes_are_read_outside_the_tests():
    reads = set()
    for path in SOURCES + PERFBENCH:
        reads |= attribute_reads(_parse(path))
    unread = []
    for path in SOURCES:
        module = importlib.import_module("sgefem." + path.stem)
        for cls_name, attr, line in instance_attributes(_parse(path)):
            if issubclass(getattr(module, cls_name), BaseException):
                continue
            if attr not in reads:
                unread.append("%s:%d %s.%s" % (path.name, line, cls_name,
                                               attr))
    assert unread == [], "set in src/ but read only by tests: %s" \
        % ", ".join(unread)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__") \
        and not (ROOT / "src" / "sgefem" / (name + ".py")).exists()


def private_reads(tree):
    """(line, name) of each private name of a sgefem module that
    ``tree`` imports, or loads as an attribute of an imported sgefem
    module; dunders and the private modules themselves are exempt."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("sgefem")):
            for alias in node.names:
                if _is_private(alias.name):
                    yield node.lineno, alias.name
                elif node.module in (None, "sgefem"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.startswith("sgefem"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and _is_private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                yield node.lineno, "%s.%s" % (ast.unparse(node.value),
                                              node.attr)


def test_private_reads_are_found():
    tree = ast.parse("from .linalg import _trim, spd_factor\n"
                     "from . import linalg, _dunavant\n"
                     "import sgefem.space\n"
                     "linalg._x, linalg.__doc__, _dunavant.ORBITS\n"
                     "sgefem.space._y, self._z\n"
                     "from ._dunavant import ORBITS\n")
    assert list(private_reads(tree)) == [(1, "_trim"), (4, "linalg._x"),
                                         (5, "sgefem.space._y")]


def test_no_module_reads_another_modules_private_names():
    found = ["%s:%d %s" % (path.name, line, name) for path in SOURCES
             for line, name in private_reads(_parse(path))]
    assert found == [], "private names read across modules: %s" \
        % ", ".join(found)
