"""Alternating parent/change pairs of benchmark runs, summarised as a
``BENCH_<label>.json`` record.

    python3 tools/bench_pairs.py --base REV --workload W [W ...] --pairs K \
        --seed S --seconds T [--label L] [--what TEXT]

The parent is ``git archive REV``, exported into a temporary directory; the
change is a copy of the working tree (every tracked or unignored file, as
it stands).  Pair ``i`` runs ``python3 perfbench/run.py --workload W --seed
S+i --seconds T --trace 0`` once in each copy, the parent first on even
pairs and the change first on odd ones, so a drift of the machine does not
favour one side.  The record names the quartile method of its summaries.
With ``--label`` the record is written to ``BENCH_<label>.json`` at the
root of this checkout; without it, to stdout as one JSON line.  A
per-metric summary goes to stderr either way.  Exits 1 when a run fails or
reports a wrong answer.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "work_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
SIDES = ("parent", "change")
#: The quartile method of every summary, named in each record.
QUARTILES = "inclusive"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into ``dest``; the full commit hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


def copy_change(dest: Path) -> str:
    """Copy the working tree's tracked and unignored files into ``dest``;
    a description of what was copied."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        source = ROOT / os.fsdecode(name)
        if source.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = git("status", "--porcelain", "--untracked-files=normal").strip()
    return f"the working tree on {head}" + (" with uncommitted changes" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """One benchmark run in ``tree``: its end-to-end metrics, and the number
    of operations that failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(command)} in {tree} exited {done.returncode}\n{done.stderr}")
    report = json.loads(lines[-1])
    if not report.get("correct", False):
        sys.exit(f"error: {workload} seed {seed} in {tree} reported a wrong answer: {lines[-1]}")
    return {name: round(report["metrics"][name]["value"], 6) for name in METRICS}, report["failed"]


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of each metric per side, and in how many pairs
    the change reads lower (every metric here is better lower)."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    summary = {}
    for name in METRICS:
        entry = {}
        for side in SIDES:
            values = [r[name] for r in by_side[side]]
            quartiles = (statistics.quantiles(values, n=4, method=QUARTILES)
                         if len(values) > 1 else values * 3)
            entry[f"{side}_median"] = round(statistics.median(values), 6)
            entry[f"{side}_quartiles"] = [round(quartiles[0], 6), round(quartiles[2], 6)]
        pairs = zip(sorted(by_side["parent"], key=lambda r: r["pair"]),
                    sorted(by_side["change"], key=lambda r: r["pair"]))
        lower = sum(change[name] < parent[name] for parent, change in pairs)
        entry["change_lower_in"] = f"{lower}/{len(by_side['parent'])}"
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, nargs="+", action="extend",
                        choices=("verdicts", "sweeps", "cli"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", help="write BENCH_<label>.json at the checkout root")
    parser.add_argument("--what", default="", help="what the change is, for the record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    import numpy

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        base = export_parent(args.base, trees["parent"])
        change = copy_change(trees["change"])
        seeds = (f"{args.seed}" if args.pairs == 1
                 else f"{args.seed}-{args.seed + args.pairs - 1}")
        record = {
            "label": args.label,
            "what": args.what,
            "base": base,
            "change": change,
            "command": ("python3 perfbench/run.py --workload <w> --seed <seed + pair> "
                        f"--seconds {args.seconds:g} --trace 0, run in a clean export of "
                        "the parent and in a copy of the change's working tree"),
            "order": "alternating pairs: even pairs run the parent first, odd pairs the change first",
            "quartiles": f"statistics.quantiles(n=4, method={QUARTILES!r})",
            "machine": (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                        f"Python {platform.python_version()}, numpy {numpy.__version__}"),
            "workloads": {},
        }
        for workload in dict.fromkeys(args.workload):
            runs, failed = [], dict.fromkeys(SIDES, 0)
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run, failed_ops = run_once(trees[side], workload, args.seed + pair, args.seconds)
                    runs.append({"pair": pair, "side": side, **run})
                    failed[side] += failed_ops
                    print(f"{workload} pair {pair} {side}: work_s {run['work_s']:.6f}",
                          file=sys.stderr)
            summary = summarise(runs)
            record["workloads"][workload] = {
                "seeds": seeds, "failed_ops": failed, "summary": summary, "runs": runs}
            for name, entry in summary.items():
                print(f"{workload} {name}: parent {entry['parent_median']:.6g} "
                      f"change {entry['change_median']:.6g} "
                      f"(change lower in {entry['change_lower_in']})", file=sys.stderr)
    if args.label:
        (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=2) + "\n")
    else:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
