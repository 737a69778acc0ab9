"""Batch command-line frontend.

Subcommands wrap the library operations one-to-one, read subspaces and
hermitian matrices from JSON files (complex entries are always [re, im]
pairs), and emit plot-ready CSV/JSON.  Each command returns its exit code and
the files it wrote; ``main`` times the command and, when it wrote files, adds
a RunReport sidecar describing the invocation.  Data outputs are
byte-identical across repeated invocations with the same inputs, seed and
tolerances; the sidecar additionally records wall time.

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
from .directions import fibonacci_directions
from .feasibility import DEFAULT_MAX_ITER, DEFAULT_TOL, moments_intersect
from .jnr import jnr_boundary, jnr_support
from .linalg import NonHermitianError, require_hermitian
from .minimality import DEFAULT_EIG_TOL, check_minimal, hausdorff_moments
from .moment import (
    curve_frame,
    curve_point,
    ellipse_projection,
    sample_moment,
    support_moment,
)
from .subspace import Subspace, centroid, subspace_from_spanning

EXIT_OK = 0
EXIT_INPUT = 3
#: Exit code of each ``minimal-check`` verdict and ``intersect`` status.
_VERDICT_EXIT = {"MINIMAL": 0, "INTERSECT": 0, "NOT_MINIMAL": 1, "DISJOINT": 1, "INDETERMINATE": 2}
#: Flags naming input files, and the tolerances recorded in the RunReport.
_INPUT_FLAGS = ("subspace", "subspace_v", "subspace_w", "matrix")
_TOLERANCE_FLAGS = ("eig_tol", "tol", "max_iter")


class InputError(Exception):
    """Invalid or malformed input file / flag value."""


# ---------------------------------------------------------------------------
# File formats.

def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _complex_entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, (int, float)) for p in value)
    ):
        raise InputError(f"{where}: complex entries must be [re, im] pairs, got {value!r}")
    return complex(value[0], value[1])


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_rows(path: str, key: str, square: bool) -> np.ndarray:
    """The rows of complex n-vectors under ``key`` of a JSON object with an
    ``n``: a non-empty list of them, or exactly n when ``square``."""
    data = _load_json(path)
    if not isinstance(data, dict) or "n" not in data or key not in data:
        raise InputError(f"{path}: expected an object with keys 'n' and '{key}'")
    n = data["n"]
    if not isinstance(n, int) or n < 1:
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
    return np.array(parsed, dtype=np.complex128)


def load_subspace(path: str) -> Subspace:
    rows = _complex_rows(path, "vectors", square=False)
    try:
        return subspace_from_spanning(rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_hermitian(path: str) -> np.ndarray:
    rows = _complex_rows(path, "entries", square=True)
    try:
        return require_hermitian(rows)
    except NonHermitianError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_direction(text: str, n: int) -> np.ndarray:
    try:
        c = np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise InputError(f"--direction must be comma-separated numbers: {exc}") from exc
    if c.size != n:
        raise InputError(f"--direction has {c.size} entries, expected {n}")
    return c


def _parse_directions(schedule: str, n: int) -> np.ndarray:
    if schedule.startswith("fibonacci:"):
        try:
            count = int(schedule.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad direction schedule {schedule!r}") from exc
        if count < 1:
            raise InputError("fibonacci:<k> needs k >= 1")
        return fibonacci_directions(n, count)
    data = _load_json(schedule)
    if isinstance(data, dict) and "directions" in data:
        data = data["directions"]
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InputError(f"{schedule}: directions must be a list of {n}-vectors")
    if not np.all(np.isfinite(arr)) or np.any(np.all(arr == 0.0, axis=1)):
        raise InputError(f"{schedule}: directions must be finite and nonzero")
    return arr


# ---------------------------------------------------------------------------
# Output helpers.

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list[str], rows) -> list[str]:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    out = Path(path)
    out.write_text("\n".join(lines) + "\n")
    return [str(out)]


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_json(payload: dict, out: str | None) -> list[str]:
    text = _dumps(payload)
    sys.stdout.write(text)
    if not out:
        return []
    Path(out).write_text(text)
    return [out]


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_report(args: argparse.Namespace, outputs: list[str], started: float) -> None:
    """Write the RunReport ``<outputs[0]>.report.json`` of one invocation."""
    options = vars(args)
    inputs = [options[key] for key in _INPUT_FLAGS if key in options]
    directions = options.get("directions")
    if directions is not None and not directions.startswith("fibonacci:"):
        inputs.append(directions)
    report = {
        "command": args.command,
        "invocation": [f"{key}={value}" for key, value in sorted(options.items()) if key != "func"],
        "inputs": {path: _digest(path) for path in inputs},
        "seed": options.get("seed"),
        "tolerances": {key: options[key] for key in _TOLERANCE_FLAGS if key in options},
        "outputs": outputs,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    Path(outputs[0] + ".report.json").write_text(_dumps(report))


# ---------------------------------------------------------------------------
# Commands.  Each returns its exit code and the files it wrote.

def _cmd_moment_sample(args) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace)
    points = sample_moment(s, args.count, args.seed)
    return EXIT_OK, _write_csv(args.out, [f"x{i + 1}" for i in range(s.n)], points)


def _cmd_curve(args) -> tuple[int, list[str]]:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1 (got {args.steps})")
    s = load_subspace(args.subspace)
    j, k = _indices(args, s.n)
    frame = curve_frame(s, j, k)
    ell = ellipse_projection(s, j, k, frame=frame)
    ts = np.linspace(0.0, np.pi / 2.0, args.steps + 1)
    rows = []
    for t in ts:
        sample = curve_point(s, j, k, float(t), frame=frame)
        rows.append([t, *sample.m, abs(sample.v[j]), abs(sample.v[k])])
    header = ["t", *[f"m{i + 1}" for i in range(s.n)], f"mod_{j + 1}", f"mod_{k + 1}"]
    outputs = _write_csv(args.out, header, rows)
    sidecar = Path(args.out + ".ellipse.json")
    sidecar.write_text(
        _dumps(
            {
                "j": j + 1,
                "k": k + 1,
                "a": [float(x) for x in ell.a],
                "b": [float(x) for x in ell.b],
                "t_end": float(ell.t_end),
                "segment": ell.segment,
            }
        )
    )
    return EXIT_OK, [*outputs, str(sidecar)]


def _indices(args, n: int) -> tuple[int, int]:
    j, k = args.j, args.k
    if not (1 <= j <= n and 1 <= k <= n):
        raise InputError(f"coordinates must lie in 1..{n} (got j={j}, k={k})")
    if j == k:
        raise InputError("coordinates j and k must differ")
    return j - 1, k - 1


def _certificate_payload(cert) -> dict:
    payload = {
        "status": cert.status.value,
        "gap": cert.gap,
        "iterations": cert.iterations,
    }
    if cert.common is not None:
        payload["common"] = [float(x) for x in cert.common]
    if cert.direction is not None:
        payload["direction"] = [float(x) for x in cert.direction]
        payload["margin"] = cert.margin
    if cert.witness_y is not None:
        payload["witness_y"] = [[_pair(z) for z in row] for row in cert.witness_y]
        payload["witness_x"] = [[_pair(z) for z in row] for row in cert.witness_x]
    return payload


def _cmd_minimal_check(args) -> tuple[int, list[str]]:
    m = load_hermitian(args.matrix)
    report = check_minimal(m, eig_tol=args.eig_tol, feas_tol=args.tol, max_iter=args.max_iter)
    payload = {
        "norm": report.norm,
        "symmetric": report.symmetric,
        "verdict": report.verdict.value,
        "boundary_ambiguous": report.boundary_ambiguous,
        "eigenspace_pos": [[_pair(z) for z in row] for row in report.space_pos.basis],
        "eigenspace_neg": [[_pair(z) for z in row] for row in report.space_neg.basis],
        "certificate": _certificate_payload(report.certificate)
        if report.certificate is not None
        else None,
    }
    return _VERDICT_EXIT[report.verdict.value], _emit_json(payload, args.out)


def _cmd_intersect(args) -> tuple[int, list[str]]:
    v = load_subspace(args.subspace_v)
    w = load_subspace(args.subspace_w)
    cert = moments_intersect(v, w, tol=args.tol, max_iter=args.max_iter)
    return _VERDICT_EXIT[cert.status.value], _emit_json(_certificate_payload(cert), args.out)


def _cmd_support(args) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace)
    c = _parse_direction(args.direction, s.n)
    moment_side = support_moment(s, c)
    jnr_side = jnr_support(s, c)
    payload = {
        "direction": [float(x) for x in c],
        "moment_support": moment_side.value,
        "moment_maximizer": [_pair(z) for z in moment_side.maximizer],
        "jnr_support": jnr_side.value,
    }
    return EXIT_OK, _emit_json(payload, args.out)


def _cmd_jnr_boundary(args) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace)
    directions = _parse_directions(args.directions, s.n)
    points = jnr_boundary(s, directions)
    rows = [[*direction, *point.x] for direction, point in zip(directions, points)]
    header = [f"u{i + 1}" for i in range(s.n)] + [f"x{i + 1}" for i in range(s.n)]
    return EXIT_OK, _write_csv(args.out, header, rows)


def _cmd_centroid(args) -> tuple[int, list[str]]:
    s = load_subspace(args.subspace)
    payload = {
        "n": s.n,
        "r": s.r,
        "centroid": [float(x) for x in centroid(s)],
    }
    return EXIT_OK, _emit_json(payload, args.out)


def _cmd_hausdorff(args) -> tuple[int, list[str]]:
    v = load_subspace(args.subspace_v)
    w = load_subspace(args.subspace_w)
    directions = _parse_directions(args.directions, v.n)
    result = hausdorff_moments(v, w, directions)
    payload = {
        "estimate": result.estimate,
        "spectral_distance": result.spectral_distance,
        "frobenius_distance": result.frobenius_distance,
        "hypothesis_holds": result.hypothesis_holds,
        "bound": result.bound,
        "bound_ok": result.bound_ok,
        "direction_count": int(directions.shape[0]),
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
    try:
        code, outputs = args.func(args)
        if outputs:
            _write_report(args, outputs, started)
    except (InputError, ValueError, OSError) as exc:  # library input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
