"""Static guard against unused API in ``src/capelli``.

Every public module-level function and class must be referenced in
``src/capelli`` outside its own body, by name or as ``.<name>``; an import
alone does not count.  Every classmethod of a public class must be called
somewhere in ``src/capelli`` as ``<Class>.<name>``, and every other public
method of a public class must be referenced as ``.<name>`` outside its own
definition.  The check reads the source with ``ast``; nothing is run or
profiled.

Known limits: operators (dunder methods) are not covered, and a reference
is not told apart from another definition of the same name.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "capelli"

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
ATTRIBUTES = [(name, node) for name, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


# Public names with no reference in src/capelli, each kept on purpose; a
# method is named as <Class>.<name>.
EXEMPT = {
    # the psi_1 reference of tests/test_identities.py, and a name the
    # benchmark tracer wraps; the sweep builds psi_1 from tables instead
    ("identities.py", "e_term"),
    # the Fraction-level reader of the terminating pFq: src sums its series
    # through the integer-pair kernel pfq_ratio
    ("hypergeom.py", "pfq_terminating"),
    # the report's byte-stable JSON text: the CLI writes it through
    # report.json_text, and perfbench/child.py calls it and digests it
    ("report.py", "RunReport.to_json"),
}


def _public_methods():
    for fname, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and (fname, f"{node.name}.{item.name}") not in EXEMPT):
                        yield fname, node.name, item


METHODS = list(_public_methods())


def _is_classmethod(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)


def test_every_class_is_found():
    assert {cls for _, cls, _ in METHODS} >= {
        "UniPoly", "RatFunc", "BiPoly", "DualScalar", "Config", "Bounds", "Check", "RunReport"}


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


def _registered_family(node) -> bool:
    """A verify check family: ``@_family`` registers it in the task table."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_family"
               for d in node.decorator_list)


def _public_definitions():
    for fname, tree in TREES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and (fname, node.name) not in EXEMPT and not _registered_family(node)):
                yield fname, node


DEFINITIONS = list(_public_definitions())
REFERENCES = [(name, node) for name, tree in TREES.items() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))]


def test_exemptions_exist():
    defined = {(fname, node.name) for fname, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {(fname, f"{node.name}.{item.name}") for fname, tree in TREES.items()
                for node in tree.body if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, ast.FunctionDef)}
    assert EXEMPT <= defined
    assert any(_registered_family(node) for node in TREES["verify.py"].body
               if isinstance(node, ast.FunctionDef))


@pytest.mark.parametrize("fname, node", DEFINITIONS,
                         ids=[f"{f[:-3]}.{n.name}" for f, n in DEFINITIONS])
def test_module_level_name_is_referenced(fname, node):
    refs = [ref for name, ref in REFERENCES
            if (ref.id if isinstance(ref, ast.Name) else ref.attr) == node.name
            and not (name == fname and node.lineno <= ref.lineno <= node.end_lineno)]
    assert refs, f"no reference to {fname[:-3]}.{node.name} in src/capelli outside its body"
