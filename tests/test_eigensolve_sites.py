"""Static check that every LAPACK call goes through the kernel of
``linalg``: the library names an eigensolver only in ``_eigh`` and
``_eigvalsh``, and a linear solver only in ``_lu_solve``, which call
numpy's LAPACK gufuncs directly, and in ``_lstsq``, the one least-squares
solve of the solver's exact fiber.  So no module grows its own copy of the
compressed eigensolve, or calls ``np.linalg.eigh``, ``np.linalg.solve``
and their per-call wrappers again."""
import ast
from pathlib import Path

import momentkit

SOURCES = sorted(Path(momentkit.__file__).parent.glob("*.py"))
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "eigh_lo", "eigvalsh_lo"}
SOLVERS = {"solve", "solve1", "inv", "lstsq"}


def _sites(path: Path, names: set[str]) -> list[tuple[str, str, str]]:
    """(module, enclosing function, name) of each of ``names`` a file
    names, as an attribute (np.linalg.eigh) or an imported name."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in names:
                found.append((path.stem, scope, child.attr))
            elif isinstance(child, ast.ImportFrom):
                found.extend((path.stem, scope, alias.name)
                             for alias in child.names if alias.name in names)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_eigensolves_live_in_linalg():
    sites = sorted(site for path in SOURCES for site in _sites(path, EIGENSOLVERS))
    assert sites == [
        ("linalg", "_eigh", "eigh_lo"),
        ("linalg", "_eigvalsh", "eigvalsh_lo"),
    ]


def test_linear_solves_live_in_linalg():
    sites = sorted(site for path in SOURCES for site in _sites(path, SOLVERS))
    assert sites == [
        ("linalg", "_lstsq", "lstsq"),
        ("linalg", "_lu_solve", "solve"),
        ("linalg", "_lu_solve", "solve1"),
    ]
