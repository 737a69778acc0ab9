"""Static checks that arguments are read only in ``linalg``: outside it and
the CLI's file parsers, no library call passes a dtype to ``np.asarray`` or
``np.array``, which would cast strings, booleans and complex values to
numbers; ``linalg._numbers`` converts every array argument instead.  And no
other module words a rule of ``linalg._integer`` or ``linalg._real``, which
check every scalar argument."""
import ast
from pathlib import Path

import momentkit

SOURCES = sorted(Path(momentkit.__file__).parent.glob("*.py"))
CONVERTERS = {"asarray", "array"}


def _casting_sites(path: Path) -> list[tuple[str, int]]:
    """(module, line) of each np.asarray or np.array call given a dtype, by
    keyword or as its second argument."""
    return [
        (path.stem, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in CONVERTERS
        and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords))
    ]


def test_casts_live_in_linalg():
    sites = [site for path in SOURCES for site in _casting_sites(path)]
    assert [site for site in sites if site[0] not in ("linalg", "cli")] == []


def test_scalar_rules_live_in_linalg():
    # A module that checks a count or a tolerance itself says so in the
    # words of these rules.
    for path in SOURCES:
        if path.stem != "linalg":
            text = path.read_text()
            assert "finite and nonnegative" not in text, path.stem
            assert "must be an integer" not in text, path.stem
