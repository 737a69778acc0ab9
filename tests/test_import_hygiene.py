"""Static check that scipy stays off the import path: the library source
imports it in exactly one place, the solvers' NNLS step, and never at module
level, so loading ``momentkit`` or running a sweep does not pay for it."""
import ast
from pathlib import Path

import momentkit

SOURCES = sorted(Path(momentkit.__file__).parent.glob("*.py"))


def _scipy_imports(path: Path) -> list[tuple[str, str, str]]:
    """(module, enclosing scope, imported name) of each scipy import in a file;
    the scope is a dotted path of classes and functions, '' at module level."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.extend((path.stem, ".".join(scope), name)
                         for name in names if name.split(".")[0] == "scipy")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_no_module_level_scipy_import():
    assert [imp for path in SOURCES for imp in _scipy_imports(path) if not imp[1]] == []


def test_only_scipy_import_is_the_nnls_step():
    imports = [imp for path in SOURCES for imp in _scipy_imports(path)]
    assert imports == [("feasibility", "_reweight", "scipy.optimize.nnls")]
