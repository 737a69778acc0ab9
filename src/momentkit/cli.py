"""Batch command-line frontend.

Subcommands wrap the library operations one-to-one, read subspaces and
hermitian matrices from JSON files (complex entries are always [re, im]
pairs), and emit plot-ready CSV/JSON.  JSON payloads hold library arrays as
they are; one encoder writes real entries as floats printed by ``repr`` and
complex entries as [re, im] pairs, so every value round-trips exactly.  Every
input-file error names the file.  Each command returns its exit code and the
files it wrote; ``main`` times the command and, when it wrote files, adds a
RunReport sidecar describing the invocation, with the SHA-256 digest of each
input file's bytes as the command read them.  Data outputs are byte-identical
across repeated invocations with the same inputs, seed and tolerances; the
sidecar additionally records wall time.

Each command imports only the library modules it runs: ``linalg`` and
``subspace`` with this module, the rest through the package on first use.

Exit codes: 0 success; for ``minimal-check`` and ``intersect`` the code maps
the verdict (0 MINIMAL/INTERSECT, 1 NOT_MINIMAL/DISJOINT, 2 INDETERMINATE);
3 signals invalid input, a usage error or an out-of-range ``--steps``,
``--eig-tol``, ``--tol`` or ``--max-iter`` included, or an output file that
cannot be written.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import DEFAULT_EIG_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL, require_hermitian
from .subspace import Subspace, centroid, subspace_from_spanning

def __getattr__(name: str):
    """A public name of the package, read off it on first use and kept here.
    The package imports the name's module then, so a command loads no solver
    or sweep module that it does not run.  Private and dunder names are not
    forwarded: the package's ``__path__`` would make this module a package."""
    package = sys.modules[__package__]
    if name.startswith("_") or not hasattr(package, name):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


#: This module; commands call the package's entry points through it, where
#: a bare global lookup would miss ``__getattr__``.
_lib = sys.modules[__name__]

EXIT_OK = 0
EXIT_INPUT = 3
#: Exit code of each ``minimal-check`` verdict and ``intersect`` status.
_VERDICT_EXIT = {"MINIMAL": 0, "INTERSECT": 0, "NOT_MINIMAL": 1, "DISJOINT": 1, "INDETERMINATE": 2}
#: Tolerances recorded in the RunReport.
_TOLERANCE_FLAGS = ("eig_tol", "tol", "max_iter")
#: CSV rows formatted and written per block, so no output's text is held whole.
_CSV_BLOCK = 1024


class InputError(ValueError):
    """Invalid or malformed input file / flag value."""


# ---------------------------------------------------------------------------
# File formats.

def _load_json(path: str, read: dict[str, str] | None):
    """The JSON value of the file at ``path``.  ``read``, when given, maps
    each path read to the SHA-256 digest of its bytes."""
    try:
        data = Path(path).read_bytes()
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if read is not None:
        read[path] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _is_number(value) -> bool:
    """A parsed JSON number; true and false parse as ``bool``, a subclass of
    ``int``, and are no numbers."""
    return type(value) in (int, float)


def _complex_entry(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise InputError(f"{where}: complex entries must be [re, im] pairs, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"{where}: entry is beyond the float range") from exc


def _complex_rows(path: str, read: dict[str, str] | None, key: str, square: bool, build):
    """``build`` applied to the rows of complex n-vectors under ``key`` of a
    JSON object with an ``n``: a non-empty list of them, or exactly n when
    ``square``.  Every error names ``path``."""
    data = _load_json(path, read)
    if not isinstance(data, dict) or "n" not in data or key not in data:
        raise InputError(f"{path}: expected an object with keys 'n' and '{key}'")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise InputError(f"{path}: 'n' must be a positive integer")
    rows = data[key]
    if square and (not isinstance(rows, list) or len(rows) != n):
        raise InputError(f"{path}: '{key}' must be an {n} x {n} nested list")
    if not square and (not isinstance(rows, list) or not rows):
        raise InputError(f"{path}: '{key}' must be a non-empty list")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{path}: {key}[{i}] must have {n} entries")
        parsed.append(
            [_complex_entry(z, f"{path}: {key}[{i}][{j}]") for j, z in enumerate(row)]
        )
    try:
        return build(np.array(parsed, dtype=np.complex128))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_subspace(path: str, read: dict[str, str] | None = None) -> Subspace:
    return _complex_rows(path, read, "vectors", False, subspace_from_spanning)


def load_hermitian(path: str, read: dict[str, str] | None = None) -> np.ndarray:
    return _complex_rows(path, read, "entries", True, require_hermitian)


def _parse_direction(text: str, n: int) -> np.ndarray:
    try:
        c = np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise InputError(f"--direction must be comma-separated numbers: {exc}") from exc
    if c.size != n:
        raise InputError(f"--direction has {c.size} entries, expected {n}")
    if not np.isfinite(c).all():
        raise InputError(f"--direction must have finite entries (got {text!r})")
    return c


def _parse_directions(schedule: str, n: int, read: dict[str, str]) -> np.ndarray:
    if schedule.startswith("fibonacci:"):
        try:
            count = int(schedule.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad direction schedule {schedule!r}") from exc
        if count < 1:
            raise InputError("fibonacci:<k> needs k >= 1")
        return _lib.fibonacci_directions(n, count)
    data = _load_json(schedule, read)
    if isinstance(data, dict) and "directions" in data:
        data = data["directions"]
    if not data or not isinstance(data, list) or not all(
        isinstance(row, list) and len(row) == n and all(map(_is_number, row)) for row in data
    ):
        raise InputError(f"{schedule}: directions must be a list of {n}-vectors")
    try:
        arr = np.array(data, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"{schedule}: directions must be finite and nonzero") from exc
    if not np.all(np.isfinite(arr)) or np.any(np.all(arr == 0.0, axis=1)):
        raise InputError(f"{schedule}: directions must be finite and nonzero")
    return arr


# ---------------------------------------------------------------------------
# Output helpers.

def _write_csv(path: str, header: list[str], rows) -> list[str]:
    """Write the header and then ``_CSV_BLOCK`` rows at a time, each float
    with 17 significant digits; a block is formatted by one ``%``."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.asarray(rows, float)
    out = Path(path)
    with out.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            f.write(line * len(block) % tuple(block.ravel().tolist()))
    return [str(out)]


def _plain(value):
    """JSON form of a numpy array or scalar: nested lists of Python numbers,
    each complex entry an [re, im] pair as in the input files."""
    if not isinstance(value, (np.ndarray, np.generic)):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    return value.tolist()


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"


def _emit_json(payload: dict, out: str | None) -> list[str]:
    text = _dumps(payload)
    sys.stdout.write(text)
    if not out:
        return []
    Path(out).write_text(text)
    return [out]


def _write_report(args: argparse.Namespace, read: dict[str, str], outputs: list[str],
                  started: float) -> None:
    """Write the RunReport ``<outputs[0]>.report.json`` of one invocation
    that read the files ``read`` (path to digest)."""
    options = vars(args)
    report = {
        "command": args.command,
        "invocation": [f"{key}={value}" for key, value in sorted(options.items()) if key != "func"],
        "inputs": read,
        "seed": options.get("seed"),
        "tolerances": {key: options[key] for key in _TOLERANCE_FLAGS if key in options},
        "outputs": outputs,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    Path(outputs[0] + ".report.json").write_text(_dumps(report))


# ---------------------------------------------------------------------------
# Commands.  Each records the input files it reads in ``read`` and returns
# its exit code and the files it wrote.

def _cmd_moment_sample(args, read) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace, read)
    points = _lib.sample_moment(s, args.count, args.seed)
    return EXIT_OK, _write_csv(args.out, [f"x{i + 1}" for i in range(s.n)], points)


def _cmd_curve(args, read) -> tuple[int, list[str]]:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1 (got {args.steps})")
    s = load_subspace(args.subspace, read)
    j, k = _indices(args, s.n)
    frame = _lib.curve_frame(s, j, k)
    ell = _lib.ellipse_projection(frame)
    ts = np.linspace(0.0, np.pi / 2.0, args.steps + 1)
    rows = []
    for t in ts:
        sample = _lib.curve_point(frame, float(t))
        rows.append([t, *sample.m, abs(sample.v[j]), abs(sample.v[k])])
    header = ["t", *[f"m{i + 1}" for i in range(s.n)], f"mod_{j + 1}", f"mod_{k + 1}"]
    outputs = _write_csv(args.out, header, rows)
    sidecar = Path(args.out + ".ellipse.json")
    ellipse = {"j": j + 1, "k": k + 1, "a": ell.a, "b": ell.b, "t_end": ell.t_end,
               "segment": ell.segment}
    sidecar.write_text(_dumps(ellipse))
    return EXIT_OK, [*outputs, str(sidecar)]


def _indices(args, n: int) -> tuple[int, int]:
    j, k = args.j, args.k
    if not (1 <= j <= n and 1 <= k <= n):
        raise InputError(f"coordinates must lie in 1..{n} (got j={j}, k={k})")
    if j == k:
        raise InputError("coordinates j and k must differ")
    return j - 1, k - 1


def _certificate_payload(cert) -> dict:
    fields = ("gap", "iterations", "common", "direction", "margin", "witness_y", "witness_x")
    payload = {key: getattr(cert, key) for key in fields}
    return {"status": cert.status.value, **{k: v for k, v in payload.items() if v is not None}}


def _cmd_minimal_check(args, read) -> tuple[int, list[str]]:
    m = load_hermitian(args.matrix, read)
    report = _lib.check_minimal(m, eig_tol=args.eig_tol, feas_tol=args.tol, max_iter=args.max_iter)
    cert = report.certificate
    payload = {
        "norm": report.norm,
        "symmetric": report.symmetric,
        "verdict": report.verdict.value,
        "boundary_ambiguous": report.boundary_ambiguous,
        "eigenspace_pos": report.space_pos.basis,
        "eigenspace_neg": report.space_neg.basis,
        "certificate": None if cert is None else _certificate_payload(cert),
    }
    return _VERDICT_EXIT[report.verdict.value], _emit_json(payload, args.out)


def _cmd_intersect(args, read) -> tuple[int, list[str]]:
    v = load_subspace(args.subspace_v, read)
    w = load_subspace(args.subspace_w, read)
    cert = _lib.moments_intersect(v, w, tol=args.tol, max_iter=args.max_iter)
    return _VERDICT_EXIT[cert.status.value], _emit_json(_certificate_payload(cert), args.out)


def _cmd_support(args, read) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace, read)
    c = _parse_direction(args.direction, s.n)
    moment_side = _lib.support_moment(s, c)
    jnr_side = _lib.jnr_support(s, c)
    payload = {
        "direction": c,
        "moment_support": moment_side.value,
        "moment_maximizer": moment_side.maximizer,
        "jnr_support": jnr_side.value,
    }
    return EXIT_OK, _emit_json(payload, args.out)


def _cmd_jnr_boundary(args, read) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace, read)
    directions = _parse_directions(args.directions, s.n, read)
    points = _lib.jnr_boundary(s, directions)
    rows = np.hstack([directions, [point.x for point in points]])
    header = [f"u{i + 1}" for i in range(s.n)] + [f"x{i + 1}" for i in range(s.n)]
    return EXIT_OK, _write_csv(args.out, header, rows)


def _cmd_centroid(args, read) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace, read)
    payload = {"n": s.n, "r": s.r, "centroid": centroid(s)}
    return EXIT_OK, _emit_json(payload, args.out)


def _cmd_hausdorff(args, read) -> tuple[int, list[str]]:
    v = load_subspace(args.subspace_v, read)
    w = load_subspace(args.subspace_w, read)
    directions = _parse_directions(args.directions, v.n, read)
    result = _lib.hausdorff_moments(v, w, directions)
    payload = {
        "estimate": result.estimate,
        "spectral_distance": result.spectral_distance,
        "frobenius_distance": result.frobenius_distance,
        "direction_count": directions.shape[0],
    }
    return EXIT_OK, _emit_json(payload, args.out)


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Moment sets of complex subspaces, joint numerical ranges, "
        "and minimal hermitian matrix certificates.",
    )
    parser.add_argument("--version", action="version", version=f"momentkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment-sample", help="sample moment points to CSV")
    p.add_argument("--subspace", required=True, help="subspace JSON file")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_moment_sample)

    p = sub.add_parser("curve", help="trace an extreme-point curve to CSV")
    p.add_argument("--subspace", required=True)
    p.add_argument("-j", type=int, required=True, help="first coordinate (1-based)")
    p.add_argument("-k", type=int, required=True, help="second coordinate (1-based)")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("minimal-check", help="certify minimality of a hermitian matrix")
    p.add_argument("--matrix", required=True, help="hermitian matrix JSON file")
    p.add_argument("--eig-tol", type=float, default=DEFAULT_EIG_TOL, dest="eig_tol")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_minimal_check)

    p = sub.add_parser("intersect", help="decide whether two moment sets intersect")
    p.add_argument("--subspace-v", required=True, dest="subspace_v")
    p.add_argument("--subspace-w", required=True, dest="subspace_w")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("support", help="exact support function in one direction")
    p.add_argument("--subspace", required=True)
    p.add_argument("--direction", required=True, help="comma-separated reals")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("jnr-boundary", help="boundary sweep of the joint numerical range")
    p.add_argument("--subspace", required=True)
    p.add_argument(
        "--directions",
        required=True,
        help="JSON file of direction vectors or 'fibonacci:<k>'",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_jnr_boundary)

    p = sub.add_parser("centroid", help="centroid of the moment set")
    p.add_argument("--subspace", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_centroid)

    p = sub.add_parser("hausdorff", help="support-based Hausdorff estimate")
    p.add_argument("--subspace-v", required=True, dest="subspace_v")
    p.add_argument("--subspace-w", required=True, dest="subspace_w")
    p.add_argument("--directions", default="fibonacci:500")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hausdorff)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, the INDETERMINATE code, on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    started = time.perf_counter()
    read: dict[str, str] = {}
    try:
        code, outputs = args.func(args, read)
        if outputs:
            _write_report(args, read, outputs, started)
    except (ValueError, OSError) as exc:  # InputError and library input errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
