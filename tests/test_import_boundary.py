"""The product never imports the test oracles or a simulation engine.

The discrete-event engine and the frozen reference implementations live
in ``tests/reference``; ``src/repro`` runs only the production paths.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
FORBIDDEN_ROOTS = {"tests", "reference"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                yield module
            else:
                # ``from .. import simkit`` names the module in ``names``.
                yield from (
                    f"{module}.{alias.name}".lstrip(".") for alias in node.names
                )


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for name in _imported_modules(tree):
        parts = name.split(".")
        if parts[0] in FORBIDDEN_ROOTS or "simkit" in parts:
            bad.append(name)
    return bad


def test_no_product_module_imports_oracles_or_simkit():
    offenders = {
        str(path.relative_to(SRC)): bad
        for path in sorted(SRC.rglob("*.py"))
        if (bad := _violations(path))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import tests.reference",
        "from reference import wfg",
        "from ..simkit import Environment",
        "from .. import simkit",
        "import repro.simkit.core as core",
    ],
)
def test_checker_flags_forbidden_imports(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert _violations(path)
