"""Spans around the module-level names each layer of momentkit calls.

The tracer replaces ``module.attr`` with a wrapper that records a span
(name, call site, start, end, parent span, operation id) and puts the
original back on ``uninstall``.  Spans stay in memory and are written as
JSONL at the end of the run.  A name that no longer exists is reported as
absent rather than failing the run.
"""
from __future__ import annotations

import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

#: A DISJOINT probe certifies when its margin reaches this value.
SEPARATION_MARGIN = 1e-9

_EIG_SITES = ("linalg", "subspace", "moment", "jnr", "feasibility", "minimality")

#: (module, attribute, span names from outer to inner).  A library call made
#: by cli gets a cli.compute span around the layer's own span.
WRAPS = [
    ("cli", "load_subspace", ("cli.load",)),
    ("cli", "load_hermitian", ("cli.load",)),
    ("cli", "subspace_from_spanning", ("subspace.build",)),
    ("cli", "fibonacci_directions", ("directions.fibonacci",)),
    ("cli", "sample_moment", ("cli.compute",)),
    ("cli", "curve_frame", ("cli.compute",)),
    ("cli", "curve_point", ("cli.compute",)),
    ("cli", "ellipse_projection", ("cli.compute",)),
    ("cli", "centroid", ("cli.compute",)),
    ("cli", "support_moment", ("cli.compute", "moment.support")),
    ("cli", "jnr_support", ("cli.compute", "jnr.support")),
    ("cli", "jnr_boundary", ("cli.compute", "jnr.boundary")),
    ("cli", "moments_intersect", ("cli.compute", "feasibility.solve")),
    ("cli", "check_minimal", ("cli.compute", "minimality.check")),
    ("cli", "hausdorff_moments", ("cli.compute", "minimality.hausdorff")),
    ("subspace", "subspace_from_spanning", ("subspace.build",)),
    ("directions", "fibonacci_directions", ("directions.fibonacci",)),
    *[(site, "hermitian_eig", ("linalg.eig",)) for site in _EIG_SITES],
    ("moment", "support_moment", ("moment.support",)),
    ("minimality", "support_moment", ("moment.support",)),
    ("jnr", "jnr_support", ("jnr.support",)),
    ("jnr", "delta_map", ("jnr.delta_map",)),
    ("jnr", "jnr_boundary", ("jnr.boundary",)),
    ("jnr", "project_onto_moment", ("feasibility.solve",)),
    ("feasibility", "moments_intersect", ("feasibility.solve",)),
    ("feasibility", "project_onto_moment", ("feasibility.solve",)),
    ("minimality", "moments_intersect", ("feasibility.solve",)),
    ("minimality", "project_onto_moment", ("feasibility.solve",)),
    ("feasibility", "nnls", ("feasibility.nnls",)),
    ("feasibility", "separation_margin", ("feasibility.probe",)),
    ("minimality", "check_minimal", ("minimality.check",)),
    ("minimality", "hausdorff_moments", ("minimality.hausdorff",)),
]


def _solve_note(result):
    status = getattr(result, "status", None)
    kind = "project" if status is None else status.value.lower()
    return [kind, int(result.iterations)]


def _probe_note(margin):
    return bool(margin >= SEPARATION_MARGIN)


NOTES = {"feasibility.solve": _solve_note, "feasibility.probe": _probe_note}

#: Units of the per-layer metrics, in the order they are printed.
LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.load_ms": "ms", "cli.compute_ms": "ms", "cli.write_ms": "ms",
    "subspace.build_calls": "count", "subspace.build_ms": "ms",
    "directions.fibonacci_ms": "ms",
    "linalg.eig_calls": "count", "linalg.eig_ms": "ms",
    "moment.support_calls": "count", "moment.support_self_ms": "ms",
    "jnr.support_calls": "count", "jnr.support_self_ms": "ms", "jnr.delta_map_ms": "ms",
    "feasibility.iters_intersect": "count", "feasibility.iters_disjoint": "count",
    "feasibility.iters_project": "count",
    "feasibility.oracle_calls": "count", "feasibility.oracle_ms": "ms",
    "feasibility.nnls_calls": "count", "feasibility.nnls_ms": "ms",
    "feasibility.probe_calls": "count", "feasibility.probe_ms": "ms",
    "feasibility.probe_useful_ratio": "ratio",
    "feasibility.engine_self_ms": "ms",
    "minimality.check_self_ms": "ms", "minimality.hausdorff_self_ms": "ms",
}


class Tracer:
    def __init__(self):
        # A span is [name, site, start, end, parent index, operation id, note].
        self.spans: list = []
        self._stack: list = []
        self.op = "setup"
        self._installed: list = []
        self.absent: list = []
        self.wraps = []
        for module_name, attr, names in WRAPS:
            try:
                module = importlib.import_module(f"momentkit.{module_name}")
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
            else:
                self.wraps.append((module, attr, names))

    def _wrap(self, fn, name: str, site: str):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, site, time.perf_counter(), None, stack[-1] if stack else None, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[6] = note(result)
            return result

        return wrapper

    def span(self, name: str, site: str, fn):
        """Call ``fn`` inside a span of its own (the root span of an operation)."""
        return self._wrap(fn, name, site)()

    def install(self) -> None:
        for module, attr, names in self.wraps:
            original = getattr(module, attr)
            fn = original
            for name in reversed(names):
                fn = self._wrap(fn, name, module.__name__.rsplit(".", 1)[-1])
            setattr(module, attr, fn)
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        keys = ("name", "site", "start", "end", "parent", "op", "note")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer figures: the traced set-up plus one average traced pass."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        counts = defaultdict(float)
        total = defaultdict(float)
        own = defaultdict(float)
        iters = defaultdict(float)
        useful = 0.0
        for idx, (name, site, start, end, parent, op, note) in enumerate(self.spans):
            weight = 1.0 if op == "setup" else 1.0 / passes
            dur = end - start
            keys = [name]
            if name == "linalg.eig" and site == "feasibility" and (
                    parent is None or self.spans[parent][0] != "feasibility.probe"):
                keys.append("feasibility.oracle")
            for key in keys:
                counts[key] += weight
                total[key] += weight * dur
                own[key] += weight * (dur - child_time[idx])
            if name == "feasibility.solve":
                iters[note[0]] += weight * note[1]
            elif name == "feasibility.probe" and note:
                useful += weight

        def calls(key):
            value = counts[key]
            return int(round(value)) if abs(value - round(value)) < 1e-9 else value

        ms = {key: 1e3 * value for key, value in total.items()}
        self_ms = {key: 1e3 * value for key, value in own.items()}
        probes = counts["feasibility.probe"]
        return {
            "cli.load_ms": ms.get("cli.load", 0.0),
            "cli.compute_ms": ms.get("cli.compute", 0.0),
            "cli.write_ms": ms.get("cli.main", 0.0) - ms.get("cli.load", 0.0) - ms.get("cli.compute", 0.0),
            "subspace.build_calls": calls("subspace.build"),
            "subspace.build_ms": ms.get("subspace.build", 0.0),
            "directions.fibonacci_ms": ms.get("directions.fibonacci", 0.0),
            "linalg.eig_calls": calls("linalg.eig"),
            "linalg.eig_ms": ms.get("linalg.eig", 0.0),
            "moment.support_calls": calls("moment.support"),
            "moment.support_self_ms": self_ms.get("moment.support", 0.0),
            "jnr.support_calls": calls("jnr.support"),
            "jnr.support_self_ms": self_ms.get("jnr.support", 0.0),
            "jnr.delta_map_ms": ms.get("jnr.delta_map", 0.0),
            "feasibility.iters_intersect": int(round(iters["intersect"])),
            "feasibility.iters_disjoint": int(round(iters["disjoint"])),
            "feasibility.iters_project": int(round(iters["project"])),
            "feasibility.oracle_calls": calls("feasibility.oracle"),
            "feasibility.oracle_ms": ms.get("feasibility.oracle", 0.0),
            "feasibility.nnls_calls": calls("feasibility.nnls"),
            "feasibility.nnls_ms": ms.get("feasibility.nnls", 0.0),
            "feasibility.probe_calls": calls("feasibility.probe"),
            "feasibility.probe_ms": ms.get("feasibility.probe", 0.0),
            "feasibility.probe_useful_ratio": useful / probes if probes else 0.0,
            "feasibility.engine_self_ms": self_ms.get("feasibility.solve", 0.0),
            "minimality.check_self_ms": self_ms.get("minimality.check", 0.0),
            "minimality.hausdorff_self_ms": self_ms.get("minimality.hausdorff", 0.0),
        }


def import_breakdown(env: dict, repeats: int) -> dict:
    """Cumulative import times of momentkit and scipy.optimize, in ms, from
    ``python -X importtime -c "import momentkit"``; medians over ``repeats``
    fresh interpreters.  A module that is not imported reads 0."""
    samples = {"momentkit": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import momentkit"],
                              env=env, capture_output=True, text=True, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1]) / 1e3
        for key in samples:
            samples[key].append(seen.get(key, 0.0))
    return {
        "cli.import_ms": statistics.median(samples["momentkit"]),
        "cli.import_scipy_ms": statistics.median(samples["scipy.optimize"]),
    }
