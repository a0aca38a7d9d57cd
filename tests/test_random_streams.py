"""One random stream: only the sample plan in ``rank.py`` draws random
numbers, so no verdict outside the sample plan can depend on the seed."""

import ast
from pathlib import Path

import cq_analyzer

PACKAGE = Path(cq_analyzer.__file__).parent


def uses_numpy_random(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.random"):
                return True
            if node.module == "numpy" and any(a.name == "random" for a in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                return True
    return False


def test_only_the_sample_plan_uses_numpy_random():
    users = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if uses_numpy_random(ast.parse(path.read_text(), filename=str(path)))
    )
    assert users == ["rank.py"]
