"""The fixed operation list of each workload.

An operation is one call into the program: ``run`` makes the call (the only
timed part) and ``judge`` checks its answer with ``checks`` and returns True
when the program gave no certified answer (a failed operation).  A wrong
answer raises ``checks.WrongAnswer`` instead.  Library calls go through the
attribute of the defining module, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs

#: Feasibility tolerance of every solver call (the program's default).
FEAS_TOL = 1e-7
#: Exit codes of intersect / minimal-check for the two certified answers.
VERDICT_EXIT = {"INTERSECT": 0, "DISJOINT": 1, "MINIMAL": 0, "NOT_MINIMAL": 1}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    ops: list
    #: Answer classes and solver iterations seen, summed over all passes.
    tally: Counter = field(default_factory=Counter)
    #: Largest resident set of a CLI child, in KiB (0 for in-process work).
    child_rss_kib: int = 0
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def child_env(src: Path) -> dict:
    """Environment of every child interpreter: the program from ``src``,
    one BLAS thread through MOMENTKIT_THREADS, no bytecode written."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env.update(PYTHONPATH=str(src), MOMENTKIT_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


# ---------------------------------------------------------------------------
# verdicts

def _certificate(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "status": cert.status.value,
        "witness_y": cert.witness_y,
        "witness_x": cert.witness_x,
        "direction": cert.direction,
        "margin": cert.margin,
    }


def verdicts(mk, seed: int) -> Workload:
    data = inputs.verdict_inputs(seed)
    build = mk.subspace.subspace_from_spanning
    wl = Workload("verdicts", [])

    def judge_pair(qv, qw):
        def judge(cert) -> bool:
            wl.tally[cert.status.value] += 1
            wl.tally[f"iters_{cert.status.value}"] += cert.iterations
            if cert.status.value == "INTERSECT":
                checks.check_intersect(cert.witness_y, cert.witness_x, qv, qw, FEAS_TOL)
            elif cert.status.value == "DISJOINT":
                checks.check_disjoint(cert.direction, cert.margin, qv, qw)
            return cert.status.value == "INDETERMINATE"
        return judge

    for i, (answer, n, r, v, w) in enumerate(data["pairs"]):
        sv, sw = build(v), build(w)
        wl.ops.append(Op(
            f"intersect/{answer}/n{n}r{r}/{i}",
            lambda sv=sv, sw=sw: mk.feasibility.moments_intersect(sv, sw),
            judge_pair(checks.basis(v), checks.basis(w)),
        ))

    def judge_matrix(m):
        def judge(report) -> bool:
            verdict = report.verdict.value
            wl.tally[verdict] += 1
            if report.certificate is not None:
                wl.tally[f"iters_{verdict}"] += report.certificate.iterations
            if verdict == "INDETERMINATE":
                return True
            checks.check_minimality(m, verdict, report.norm, _certificate(report.certificate), FEAS_TOL)
            return False
        return judge

    for i, (answer, m) in enumerate(data["matrices"]):
        wl.ops.append(Op(
            f"check_minimal/{answer}/n{m.shape[0]}/{i}",
            lambda m=m: mk.minimality.check_minimal(m),
            judge_matrix(m),
        ))

    def judge_point(kind, p, q):
        def judge(res) -> bool:
            wl.tally[f"{kind}_converged" if res.converged else f"{kind}_unconverged"] += 1
            wl.tally[f"iters_{kind}"] += res.iterations
            checks.check_projection(p, res.distance, res.witness, q)
            return not res.converged
        return judge

    for i, (kind, span, p) in enumerate(data["points"]):
        s = build(span)
        wl.ops.append(Op(
            f"project/{kind}/n{s.n}r{s.r}/{i}",
            lambda s=s, p=p: mk.feasibility.project_onto_moment(
                s, p, max_iter=inputs.PROJECTION_MAX_ITER),
            judge_point(kind, p, checks.basis(span)),
        ))
    return wl


# ---------------------------------------------------------------------------
# sweeps

def sweeps(mk, seed: int) -> Workload:
    wl = Workload("sweeps", [])
    build = mk.subspace.subspace_from_spanning
    for n, r, v, w in inputs.sweep_inputs(seed):
        dirs = mk.directions.fibonacci_directions(n, inputs.SWEEP_DIRECTIONS)
        sv, sw = build(v), build(w)
        qv, qw = checks.basis(v), checks.basis(w)

        def judge_support(res, qv=qv, dirs=dirs) -> bool:
            checks.check_support([x.value for x in res], [x.maximizer for x in res], qv, dirs)
            return False

        def judge_boundary(res, qv=qv, dirs=dirs) -> bool:
            checks.check_jnr_boundary([x.x for x in res], qv, dirs)
            return False

        def judge_hausdorff(res, qv=qv, qw=qw, dirs=dirs) -> bool:
            checks.check_hausdorff(res.estimate, res.spectral_distance, qv, qw, dirs)
            return False

        tag = f"n{n}r{r}"
        wl.ops += [
            Op(f"support/{tag}",
               lambda sv=sv, dirs=dirs: [mk.moment.support_moment(sv, u) for u in dirs],
               judge_support),
            Op(f"jnr_boundary/{tag}",
               lambda sv=sv, dirs=dirs: mk.jnr.jnr_boundary(sv, dirs), judge_boundary),
            Op(f"hausdorff/{tag}",
               lambda sv=sv, sw=sw, dirs=dirs: mk.minimality.hausdorff_moments(sv, sw, dirs),
               judge_hausdorff),
        ]
    return wl


# ---------------------------------------------------------------------------
# cli

def _pairs(a) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def _unpair(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _cli_certificate(payload: dict | None) -> dict | None:
    if payload is None:
        return None
    cert = dict(payload)
    for key in ("witness_y", "witness_x"):
        if key in cert:
            cert[key] = _unpair(cert[key])
    return cert


def cli(mk, seed: int, out_dir: Path, src: Path, in_process: bool) -> Workload:
    """All eight subcommands on input files written here.  Each operation is
    one ``python -m momentkit.cli`` child, or one in-process ``cli.main`` call
    when ``in_process`` (the traced run)."""
    data = inputs.cli_inputs(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
    wl = Workload("cli", [], workdir=work)
    n = data["v"].shape[1]

    def write(name: str, payload: dict) -> str:
        path = work / name
        path.write_text(json.dumps(payload))
        return str(path)

    def subspace_file(name, span):
        return write(name, {"n": n, "vectors": _pairs(span)})

    v = subspace_file("v.json", data["v"])
    near = subspace_file("near.json", data["near"])
    iv, iw = (subspace_file(f"intersect-{s}.json", a) for s, a in zip("vw", data["intersect"]))
    dv, dw = (subspace_file(f"disjoint-{s}.json", a) for s, a in zip("vw", data["disjoint"]))
    minimal = write("minimal.json", {"n": n, "entries": _pairs(data["minimal"])})
    not_minimal = write("not-minimal.json", {"n": n, "entries": _pairs(data["not_minimal"])})
    directions = write("directions.json", {"directions": data["directions"].tolist()})
    qv, qnear = checks.basis(data["v"]), checks.basis(data["near"])
    c = data["direction"]
    out = {name: work / name for name in (
        "sample.csv", "curve.csv", "curve.csv.ellipse.json", "centroid.json", "support.json",
        "boundary.csv", "intersect.json", "disjoint.json", "minimal-report.json",
        "not-minimal-report.json", "hausdorff.json")}

    def check_sample():
        checks.check_moment_points(_csv(out["sample.csv"]), qv, inputs.CLI_SAMPLE_COUNT)

    def check_curve():
        rows = _csv(out["curve.csv"])
        checks.check_curve(rows[:, 0], rows[:, 1 : n + 1], rows[:, n + 1], rows[:, n + 2], qv, 0, 1)

    def check_centroid():
        payload = _json(out["centroid.json"])
        checks.require((payload["n"], payload["r"]) == qv.shape, "centroid reports the wrong shape")
        checks.check_centroid(payload["centroid"], qv)

    def check_support():
        payload = _json(out["support.json"])
        value = payload["moment_support"]
        checks.check_support([value], [_unpair([payload["moment_maximizer"]])[0]], qv, [c])
        checks.require(abs(payload["jnr_support"] - max(value, 0.0)) <= checks.VALUE_TOL,
                       "JNR support differs from the floored moment support")

    def check_boundary():
        rows = _csv(out["boundary.csv"])
        checks.require(rows.shape == (inputs.SWEEP_DIRECTIONS, 2 * n), "boundary CSV has the wrong shape")
        checks.check_jnr_boundary(rows[:, n:], qv, rows[:, :n])

    def check_intersect():
        cert = _cli_certificate(_json(out["intersect.json"]))
        checks.require(cert["status"] == "INTERSECT", "intersect exit code 0 without INTERSECT")
        a, b = data["intersect"]
        checks.check_intersect(cert["witness_y"], cert["witness_x"], checks.basis(a), checks.basis(b), FEAS_TOL)

    def check_disjoint():
        cert = _json(out["disjoint.json"])
        checks.require(cert["status"] == "DISJOINT", "intersect exit code 1 without DISJOINT")
        a, b = data["disjoint"]
        checks.check_disjoint(cert["direction"], cert["margin"], checks.basis(a), checks.basis(b))

    def check_report(name, m, verdict):
        def check():
            payload = _json(out[name])
            checks.require(payload["verdict"] == verdict, f"minimal-check exit code says {verdict}, report {payload['verdict']}")
            checks.check_minimality(m, verdict, payload["norm"], _cli_certificate(payload["certificate"]), FEAS_TOL)
        return check

    def check_hausdorff():
        payload = _json(out["hausdorff.json"])
        checks.check_hausdorff(payload["estimate"], payload["spectral_distance"], qv, qnear, data["directions"])

    direction = ",".join(repr(float(x)) for x in c)
    commands = [
        ("moment-sample", ["moment-sample", "--subspace", v, "--count", str(inputs.CLI_SAMPLE_COUNT),
                           "--seed", str(data["sample_seed"]), "--out", str(out["sample.csv"])],
         0, check_sample, ["sample.csv"]),
        ("curve", ["curve", "--subspace", v, "-j", "1", "-k", "2", "--steps", "64",
                   "--out", str(out["curve.csv"])],
         0, check_curve, ["curve.csv", "curve.csv.ellipse.json"]),
        ("centroid", ["centroid", "--subspace", v, "--out", str(out["centroid.json"])],
         0, check_centroid, ["centroid.json"]),
        ("support", ["support", "--subspace", v, f"--direction={direction}",
                     "--out", str(out["support.json"])],
         0, check_support, ["support.json"]),
        ("jnr-boundary", ["jnr-boundary", "--subspace", v, "--directions",
                          f"fibonacci:{inputs.SWEEP_DIRECTIONS}", "--out", str(out["boundary.csv"])],
         0, check_boundary, ["boundary.csv"]),
        ("intersect/INTERSECT", ["intersect", "--subspace-v", iv, "--subspace-w", iw,
                                 "--out", str(out["intersect.json"])],
         VERDICT_EXIT["INTERSECT"], check_intersect, ["intersect.json"]),
        ("intersect/DISJOINT", ["intersect", "--subspace-v", dv, "--subspace-w", dw,
                                "--out", str(out["disjoint.json"])],
         VERDICT_EXIT["DISJOINT"], check_disjoint, ["disjoint.json"]),
        ("minimal-check/MINIMAL", ["minimal-check", "--matrix", minimal,
                                   "--out", str(out["minimal-report.json"])],
         VERDICT_EXIT["MINIMAL"], check_report("minimal-report.json", data["minimal"], "MINIMAL"),
         ["minimal-report.json"]),
        ("minimal-check/NOT_MINIMAL", ["minimal-check", "--matrix", not_minimal,
                                       "--out", str(out["not-minimal-report.json"])],
         VERDICT_EXIT["NOT_MINIMAL"],
         check_report("not-minimal-report.json", data["not_minimal"], "NOT_MINIMAL"),
         ["not-minimal-report.json"]),
        ("hausdorff", ["hausdorff", "--subspace-v", v, "--subspace-w", near, "--directions",
                       directions, "--out", str(out["hausdorff.json"])],
         0, check_hausdorff, ["hausdorff.json"]),
    ]

    env = child_env(src)
    stderr_path = work / "stderr.txt"

    def run_child(argv):
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "momentkit.cli", *argv], cwd=work,
                                    env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wl.child_rss_kib = max(wl.child_rss_kib, usage.ru_maxrss)
        return proc.returncode

    cli_module = importlib.import_module("momentkit.cli") if in_process else None

    def run_in_process(argv):
        with contextlib.redirect_stdout(io.StringIO()), open(stderr_path, "w") as err, \
                contextlib.redirect_stderr(err):
            return cli_module.main(argv)

    runner = run_in_process if in_process else run_child
    digests: dict = {}

    def make_judge(name, expected, check, files):
        def judge(code) -> bool:
            if code != expected:
                print(f"{name}: exit code {code}, expected {expected}: "
                      f"{stderr_path.read_text(errors='replace')[-400:]}", file=sys.stderr)
                return True
            wl.tally[name] += 1
            digest = [hashlib.sha256(out[f].read_bytes()).hexdigest() for f in files]
            if name not in digests:
                check()
                digests[name] = digest
            checks.check_identical(name, digests[name], digest)
            return False
        return judge

    for name, argv, expected, check, files in commands:
        wl.ops.append(Op(name, lambda argv=argv: runner(argv), make_judge(name, expected, check, files)))
    return wl


def build(name: str, mk, seed: int, out_dir: Path, src: Path, in_process: bool = False) -> Workload:
    if name == "verdicts":
        return verdicts(mk, seed)
    if name == "sweeps":
        return sweeps(mk, seed)
    return cli(mk, seed, out_dir, src, in_process)
