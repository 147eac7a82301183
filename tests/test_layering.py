"""Static guard on the package's layers: the algebra modules import nothing
from the modules that sweep, configure, report or parse the command line.

A check in an algebra module returns its outcome as plain values, and
``verify`` alone turns outcomes into report records.  The check reads the
source with ``ast``; nothing is imported or run.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "capelli"

ALGEBRA = ("ratfunc", "bipoly", "partitions", "hypergeom", "knopsahi", "eigenpoly", "deligne",
           "identities")
UPPER = {"report", "config", "verify", "cli"}


def imported_modules(source: str) -> set[str]:
    """The package modules a module's source imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "capelli"):
                # ``from . import verify as vf`` names the module in its alias list
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module)
    return {name.rpartition(".")[2] for name in names}


def test_imported_modules_sees_every_spelling():
    source = ("from .report import Check\nfrom . import config as c\n"
              "import capelli.verify\nfrom capelli import cli\nfrom .ratfunc import X\n")
    assert imported_modules(source) == {"report", "config", "verify", "cli", "ratfunc"}


def test_every_algebra_module_exists():
    assert {path.stem for path in SRC.glob("*.py")} >= set(ALGEBRA) | UPPER


@pytest.mark.parametrize("module", ALGEBRA)
def test_algebra_module_imports_no_upper_layer(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert not imported_modules(source) & UPPER, f"{module}.py reaches above the algebra layer"
