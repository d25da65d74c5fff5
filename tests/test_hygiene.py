"""Static checks on the package source, stdlib ast only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pengeom"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.
    __future__ imports are directives, not names, and are skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .exact import rank, vec as v\n"
        "def f(x: np.ndarray):\n"
        "    return rank(x)\n"
    )
    assert unused_imports(source) == ["os", "v"]


def test_modules_use_every_name_they_import():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
