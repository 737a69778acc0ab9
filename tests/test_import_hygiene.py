"""Static check that the library source imports no scipy at all: numpy is its
only dependency, so no command or solver pays for scipy's import."""
import ast
from pathlib import Path

import momentkit

SOURCES = sorted(Path(momentkit.__file__).parent.glob("*.py"))


def _scipy_imports(path: Path) -> list[tuple[str, str]]:
    """(module, imported name) of each scipy import in a file, at any scope."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(path.stem, name) for name in names if name.split(".")[0] == "scipy"]
    return found


def test_no_scipy_import():
    assert SOURCES
    assert [imp for path in SOURCES for imp in _scipy_imports(path)] == []
