"""Every name a package module imports is used in it (``__init__`` re-exports by importing)."""
import ast
from pathlib import Path

import pytest

import matchlearn

MODULES = sorted(p for p in Path(matchlearn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports (``annotations`` aside) that it never uses as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - {"annotations"})


def test_the_rule_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom .a import b, c\nc(np)\n") == [
        "b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
