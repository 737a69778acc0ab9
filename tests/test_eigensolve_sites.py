"""Static check that every eigensolve goes through the kernel of ``linalg``:
the library names an eigensolver only in ``_eigh`` and ``_eigvalsh``, which
call numpy's LAPACK gufuncs directly, so no module grows its own copy of
the compressed eigensolve or calls ``np.linalg.eigh`` and its per-call
wrapper again."""
import ast
from pathlib import Path

import momentkit

SOURCES = sorted(Path(momentkit.__file__).parent.glob("*.py"))
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eigh_lo", "eigvalsh_lo"}


def _eigensolve_sites(path: Path) -> list[tuple[str, str, str]]:
    """(module, enclosing function, solver) of each eigensolver a file names,
    as an attribute (np.linalg.eigh) or an imported name."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in EIGENSOLVERS:
                found.append((path.stem, scope, child.attr))
            elif isinstance(child, ast.ImportFrom):
                found.extend((path.stem, scope, alias.name)
                             for alias in child.names if alias.name in EIGENSOLVERS)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_eigensolves_live_in_linalg():
    sites = sorted(site for path in SOURCES for site in _eigensolve_sites(path))
    assert sites == [
        ("linalg", "_eigh", "eigh_lo"),
        ("linalg", "_eigvalsh", "eigvalsh_lo"),
    ]
