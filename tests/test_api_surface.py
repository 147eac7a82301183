"""Static guard against unused API in the algebra classes.

Every classmethod of ``UniPoly``, ``RatFunc`` and ``BiPoly`` must be called
somewhere in ``src/capelli`` as ``<Class>.<name>``, and every other public
method must be referenced as ``.<name>`` outside its own definition.  The
check reads the source with ``ast``; nothing is run or profiled.

Known limits: operators (dunder methods) are not covered, and a reference
``.name`` is not told apart from a method of the same name on another class.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "capelli"
CLASSES = {"ratfunc.py": ("UniPoly", "RatFunc"), "bipoly.py": ("BiPoly",)}

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
ATTRIBUTES = [(name, node) for name, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _public_methods():
    for fname, classes in CLASSES.items():
        for node in TREES[fname].body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield fname, node.name, item


METHODS = list(_public_methods())


def _is_classmethod(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)


def test_every_class_is_found():
    assert {cls for _, cls, _ in METHODS} == {"UniPoly", "RatFunc", "BiPoly"}


@pytest.mark.parametrize("fname, cls, fn", METHODS, ids=[f"{c}.{f.name}" for _, c, f in METHODS])
def test_method_is_referenced(fname, cls, fn):
    if _is_classmethod(fn):
        refs = [node for _, node in ATTRIBUTES if node.attr == fn.name
                and isinstance(node.value, ast.Name) and node.value.id == cls]
        assert refs, f"no {cls}.{fn.name} in src/capelli"
    else:
        refs = [node for name, node in ATTRIBUTES if node.attr == fn.name
                and not (name == fname and fn.lineno <= node.lineno <= fn.end_lineno)]
        assert refs, f"no .{fn.name} in src/capelli outside {cls}.{fn.name}"
