"""The package's public surface is what something reaches: every name that
`torusradon/__init__.py` imports is named in a command, a script, the
benchmark, the CI workflow, the acceptance criteria or another package
function, not only on its own `def` or `class` line and in unit tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torusradon"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reaching_lines() -> list[str]:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "benchmarks").rglob("*.py"), ROOT / ".github" / "workflows" / "tests.yml",
             ROOT / "tests" / "test_acceptance.py"]
    return [line for path in files if path != PACKAGE / "__init__.py"
            for line in path.read_text().splitlines()]


def test_every_exported_name_has_a_caller_outside_the_unit_tests():
    lines = _reaching_lines()
    unreached = []
    for name in _exported_names():
        named = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(named.search(line) and not own.match(line) for line in lines):
            unreached.append(name)
    assert unreached == []
