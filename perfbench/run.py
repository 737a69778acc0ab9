"""Benchmark of momentkit: three closed-loop workloads with one caller.

    python3 perfbench/run.py --workload {verdicts,sweeps,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  The
run repeats whole passes over the workload's fixed operation list for
``--seconds`` seconds (at least five passes), checks every answer with
numpy-only checkers, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead, and writes the spans to ``perfbench/out/``.
"""
from __future__ import annotations

import os
import sys

# Before numpy is imported anywhere: one BLAS thread through the program's
# own cap, and no bytecode written into the checkout.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.pop(_var, None)
os.environ["MOMENTKIT_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verdicts", "sweeps", "cli")
#: Fresh interpreters timed from start to built inputs; setup_s is their median.
SETUP_PROBES = 7
#: Time of one calibration loop on the reference machine (see README).  Each
#: timed sample is scaled by REFERENCE_CAL_S / (the calibration loops timed
#: around it), so times read in seconds at the reference machine's speed and
#: a slow stretch of the machine cancels out.
REFERENCE_CAL_S = 0.002
CAL_LOOPS = 150
#: Fresh interpreters for the import-time breakdown of the traced run.
IMPORT_PROBES = 3
MIN_PASSES = 5


def import_program():
    """Import momentkit from the checkout's src/, or exit 2 when it is not there."""
    if not (SRC / "momentkit" / "__init__.py").is_file():
        print(f"error: no momentkit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    mk = importlib.import_module("momentkit")
    if Path(mk.__file__).resolve().parent != SRC / "momentkit":
        print(f"error: momentkit imported from {mk.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mk


def calibrate() -> float:
    """Wall time of a fixed loop of small eigensolves and float arithmetic,
    the mix of interpreter and LAPACK work the operations do; it uses numpy
    alone, so no change to momentkit moves it."""
    import numpy as np

    m = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)[::-1]
    m = m + m.conj().T
    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += float(np.linalg.eigh(m)[0][-1]) * (i % 3)
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports momentkit, builds the
    workload's inputs and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - start


def scaled(samples: list, scale: bool) -> float:
    """Median of (seconds, calibration) samples, each scaled to the reference
    speed when ``scale``."""
    return statistics.median(t * REFERENCE_CAL_S / c if scale else t for t, c in samples)


def end_to_end(per_op: list, setup: list, peak_rss_kib: int, scale: bool = True) -> dict:
    """The five end-to-end metrics from per-operation and set-up samples."""
    medians = sorted(scaled(samples, scale) for samples in per_op)
    tail = medians[-max(1, len(medians) // 10):]
    return {
        "setup_s": {"value": scaled(setup, scale), "unit": "s"},
        "work_s": {"value": sum(medians), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(medians), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * statistics.fmean(tail), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MB"},
    }


def run_passes(wl, seconds: float, tracer=None):
    """Whole passes over ``wl.ops`` until ``seconds`` have gone by, with a
    calibration loop before every operation and after the last; an
    operation's calibration is the mean of the loops on either side of it.
    With a tracer, even passes run untraced and odd passes traced.  Returns
    per-operation (seconds, calibration) samples of untraced and traced
    passes, attempted, failed."""
    plain = [[] for _ in wl.ops]
    traced = [[] for _ in wl.ops]
    attempted = failed = passes = 0
    root = "cli.main" if wl.name == "cli" else "op"
    deadline = time.perf_counter() + seconds
    while passes < MIN_PASSES or time.perf_counter() < deadline \
            or (tracer is not None and passes % 2):
        use_trace = tracer is not None and passes % 2 == 1
        if use_trace:
            tracer.install()
        times = []
        cals = [calibrate()]
        for op in wl.ops:
            if use_trace:
                tracer.op = f"{passes}:{op.name}"
                start = time.perf_counter()
                result = tracer.span(root, op.name, op.run)
            else:
                start = time.perf_counter()
                result = op.run()
            times.append(time.perf_counter() - start)
            cals.append(calibrate())
            attempted += 1
            failed += bool(op.judge(result))
        if use_trace:
            tracer.uninstall()
        for i, t in enumerate(times):
            (traced if use_trace else plain)[i].append((t, 0.5 * (cals[i] + cals[i + 1])))
        passes += 1
    return plain, traced, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs and exit (set-up probe)")
    args = parser.parse_args(argv)

    mk = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workloads.build(args.workload, mk, args.seed, OUT, SRC).close()
        return 0

    import selftest
    if selftest.main() != 0:
        return 1

    tracer = None
    setup: list = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        cal = calibrate()
        for _ in range(SETUP_PROBES):
            probe = setup_probe(args.workload, args.seed)
            after = calibrate()
            setup.append((probe, 0.5 * (cal + after)))
            cal = after
    wl = workloads.build(args.workload, mk, args.seed, OUT, SRC, in_process=bool(args.trace))
    if tracer is not None:
        tracer.uninstall()
    try:
        plain, traced, attempted, failed = run_passes(wl, args.seconds, tracer)
    finally:
        wl.close()

    print("tally: " + ", ".join(f"{k}={v}" for k, v in sorted(wl.tally.items())))
    record = {"workload": wl.name, "seed": args.seed, "passes": len(plain[0]) + len(traced[0]),
              "tally": dict(wl.tally),
              "calibration_s": statistics.median(c for samples in plain for _, c in samples),
              "op_median_s": {op.name: scaled(t, False) for op, t in zip(wl.ops, plain)}}
    if tracer is None:
        rss = wl.child_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(plain, setup, rss)
        record["unscaled"] = end_to_end(plain, setup, rss, scale=False)
    else:
        metrics = report_trace(wl, tracer, plain, traced, args.seed)
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"calibration: median {1e3 * record['calibration_s']:.4f} ms"
          f" (reference {1e3 * REFERENCE_CAL_S:.1f} ms), {record['passes']} passes")
    for name, metric in metrics.items():
        unscaled = record.get("unscaled", {}).get(name, {}).get("value")
        extra = f"  (unscaled {unscaled:.6f})" if unscaled is not None else ""
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}{extra}")
    print(json.dumps(result))
    return 0


def report_trace(wl, tracer, plain: list, traced: list, seed: int) -> dict:
    import tracing
    import workloads

    passes = len(traced[0])
    layers = tracing.import_breakdown(workloads.child_env(SRC), IMPORT_PROBES)
    layers.update(tracer.layer_metrics(passes))
    work = [sum(scaled(samples, True) for samples in per_op) for per_op in (plain, traced)]
    path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name in tracer.absent:
        print(f"absent: {name} (not wrapped)")
    print(f"tracing overhead: traced work_s {work[1]:.4f} s - untraced work_s {work[0]:.4f} s"
          f" = {work[1] - work[0]:+.4f} s over {passes} traced passes")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
