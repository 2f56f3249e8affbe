"""Span tracing around calls into the rstokes layers, from outside the library.

``install`` replaces each traced function with a timing wrapper under every
name it is bound to in the loaded rstokes modules (``second_kind_solve`` is
bound in volterra, relaxation and kernels; ``cli`` imports most public
functions by name), and methods on their class.  Spans are kept in memory as
(name, start, end, parent, extra, cost) and written once when the process
ends; cost is the time the wrapper itself spent around the call.
``layer_metrics`` turns one process's spans into per-layer numbers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List

import numpy as np

# (module, attribute, span name); "Class.method" patches the class attribute
TARGETS = (
    ("rstokes.cli", "main", "cli.main"),
    ("rstokes.config", "load_config", "config"),
    ("rstokes.config", "apply_overrides", "config"),
    ("rstokes.config", "validate_config", "config"),
    ("rstokes.config", "build_grid", "config"),
    ("rstokes.config", "build_domain_basis", "config"),
    ("rstokes.config", "build_kernel", "config"),
    ("rstokes.config", "build_history_kernel", "config"),
    ("rstokes.config", "build_nonlinearity", "config"),
    ("rstokes.config", "nonlinearity_from_section", "config"),
    ("rstokes.config", "build_initial", "config"),
    ("rstokes.csvio", "write_csv", "csvio.write"),
    ("rstokes.csvio", "read_field_csv", "csvio.read"),
    ("rstokes.csvio", "read_series_csv", "csvio.read"),
    ("rstokes.volterra", "second_kind_solve", "volterra.second_kind"),
    ("rstokes.volterra", "first_kind_solve", "volterra.first_kind"),
    ("rstokes.volterra", "fftconvolve", "volterra.fft_convolve"),
    ("rstokes.volterra", "lag_weights", "volterra.lag_weights"),
    ("rstokes.kernels", "MemoryKernel.moments", "kernels.moments"),
    ("rstokes.kernels", "MemoryKernel.a_moments", "kernels.moments"),
    ("rstokes.kernels", "HistoryKernel.moments", "kernels.moments"),
    ("rstokes.kernels", "certify_completely_positive", "kernels.certify"),
    ("rstokes.kernels", "certify_pc", "kernels.certify"),
    ("rstokes.relaxation", "relaxation_batch", "relaxation.batch"),
    ("rstokes.relaxation", "verify_relaxation", "relaxation.verify"),
    ("rstokes.spectral", "build_basis", "spectral.build_basis"),
    ("rstokes.spectral", "project", "spectral.project"),
    ("rstokes.spectral", "hnorm", "spectral.hnorm"),
    ("rstokes.resolvent", "convolve_sol_op", "resolvent.convolve"),
    ("rstokes.resolvent", "verify_sol_op_bounds", "resolvent.verify"),
    ("rstokes.resolvent", "reciprocal_cumulative_integrable", "resolvent.probe"),
    ("rstokes.nonlinear", "Nonlinearity.apply_series", "nonlinear.apply"),
    ("rstokes.nonlinear", "history_series", "nonlinear.history"),
    ("rstokes.nonlinear", "picard_solve", "nonlinear.picard"),
    ("rstokes.nonlinear", "holder_estimate", "nonlinear.holder"),
    ("rstokes.inverse", "reconstruct", "inverse.reconstruct"),
)


def _second_kind_extra(bound, result) -> Dict:
    # computed multiply-adds of the row loop: row i of the rectangle rule
    # dots i-1 past values, the trapezoid rule i + (i-1), per column
    n = int(bound["grid"].n_steps)
    columns = int(np.size(bound["lam"]))
    per_column = n * n if result[1] == "trapezoid" else n * (n - 1) // 2
    return {"madds": columns * per_column}


def _basis_extra(bound, result) -> Dict:
    # computed from the shapes of the dense node matrices
    nbytes = result.synthesis.nbytes + sum(g.nbytes for g in result.gradients)
    return {"nodes": int(result.nodes.shape[0]), "matrix_bytes": int(nbytes)}


def _write_extra(bound, result) -> Dict:
    with open(result, "rb") as handle:
        data = handle.read()
    return {"bytes": len(data), "rows": data.count(b"\n") - 1}


def _picard_extra(bound, result) -> Dict:
    return {"sweeps": int(result.iterations)}


EXTRAS = {
    "volterra.second_kind": _second_kind_extra,
    "spectral.build_basis": _basis_extra,
    "csvio.write": _write_extra,
    "nonlinear.picard": _picard_extra,
}


class Recorder:
    """In-memory span store of one process; single-threaded."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, extra, cost]
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        entered = time.perf_counter()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, None, None, parent, None, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        extra = EXTRAS.get(name)
        if extra is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            span[4] = extra(bound, result)
        # the wrapper's own time around the call: span bookkeeping and extras
        span[5] = span[1] - entered + time.perf_counter() - span[2]
        return result

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "extra", "cost")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)

    traced.__wrapped__ = fn
    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target under each of its bindings; returns the undo."""
    undo = []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(recorder, span, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(recorder, span, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "rstokes" or name.startswith("rstokes.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


# -- span arithmetic ----------------------------------------------------------


def self_times(spans: List[Dict]) -> List[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _outermost(spans: List[Dict]) -> List[bool]:
    """True where no ancestor has the same name (recursion counted once)."""
    flags = []
    for s in spans:
        parent = s["parent"]
        while parent >= 0 and spans[parent]["name"] != s["name"]:
            parent = spans[parent]["parent"]
        flags.append(parent < 0)
    return flags


def span_totals(spans: List[Dict]):
    """Per span name: inclusive time and calls of outermost spans, self time."""
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    own: Dict[str, float] = {}
    for s, top, mine in zip(spans, _outermost(spans), self_times(spans)):
        name = s["name"]
        own[name] = own.get(name, 0.0) + mine
        if top:
            inclusive[name] = inclusive.get(name, 0.0) + s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
    return inclusive, calls, own


def _extra_sum(spans: List[Dict], name: str, key: str) -> float:
    return sum(s["extra"][key] for s in spans if s["name"] == name and s["extra"])


def _extra_max(spans: List[Dict], name: str, key: str) -> float:
    return max(
        (s["extra"][key] for s in spans if s["name"] == name and s["extra"]),
        default=0,
    )


# metric -> (kind, span name); kinds: "s" inclusive seconds, "self" self
# seconds, "calls" outermost call count
SPAN_METRICS = {
    "volterra.second_kind_s": ("s", "volterra.second_kind"),
    "volterra.second_kind_calls": ("calls", "volterra.second_kind"),
    "relaxation.batch_s": ("s", "relaxation.batch"),
    "volterra.first_kind_s": ("s", "volterra.first_kind"),
    "kernels.certify_s": ("s", "kernels.certify"),
    "resolvent.verify_s": ("s", "resolvent.verify"),
    "resolvent.probe_s": ("s", "resolvent.probe"),
    "relaxation.verify_s": ("s", "relaxation.verify"),
    "nonlinear.apply_s": ("s", "nonlinear.apply"),
    "spectral.project_s": ("s", "spectral.project"),
    "spectral.project_calls": ("calls", "spectral.project"),
    "spectral.build_basis_s": ("s", "spectral.build_basis"),
    "resolvent.convolve_s": ("s", "resolvent.convolve"),
    "resolvent.convolve_calls": ("calls", "resolvent.convolve"),
    "nonlinear.history_s": ("s", "nonlinear.history"),
    "volterra.fft_convolve_s": ("s", "volterra.fft_convolve"),
    "volterra.fft_convolve_calls": ("calls", "volterra.fft_convolve"),
    "volterra.lag_weights_calls": ("calls", "volterra.lag_weights"),
    "kernels.moments_s": ("s", "kernels.moments"),
    "kernels.moments_calls": ("calls", "kernels.moments"),
    "nonlinear.picard_s": ("s", "nonlinear.picard"),
    "nonlinear.holder_s": ("s", "nonlinear.holder"),
    "spectral.hnorm_s": ("s", "spectral.hnorm"),
    "inverse.reconstruct_self_s": ("self", "inverse.reconstruct"),
    "csvio.write_s": ("s", "csvio.write"),
    "csvio.read_s": ("s", "csvio.read"),
    "config.s": ("self", "config"),
    "cli.glue_s": ("self", "cli.main"),
}

# metrics that combine across the processes of one op by max, not by sum
MAX_METRICS = ("spectral.nodes", "spectral.matrix_mb")


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """Per-layer numbers of one traced process."""
    inclusive, calls, own = span_totals(spans)
    table = {"s": inclusive, "calls": calls, "self": own}
    out = {metric: table[kind].get(name, 0) for metric, (kind, name) in SPAN_METRICS.items()}
    out["volterra.second_kind_madds"] = _extra_sum(spans, "volterra.second_kind", "madds")
    out["spectral.nodes"] = _extra_max(spans, "spectral.build_basis", "nodes")
    out["spectral.matrix_mb"] = (
        _extra_max(spans, "spectral.build_basis", "matrix_bytes") / 2**20
    )
    out["csvio.rows_written"] = _extra_sum(spans, "csvio.write", "rows")
    out["csvio.bytes_written"] = _extra_sum(spans, "csvio.write", "bytes")
    out["nonlinear.sweeps"] = _extra_sum(spans, "nonlinear.picard", "sweeps")
    out["trace.spans"] = len(spans)
    out["trace.wrapper_s"] = sum(s["cost"] for s in spans)
    return out


def combine(per_process: List[Dict[str, float]]) -> Dict[str, float]:
    """One op's metrics from the metrics of its processes."""
    out: Dict[str, float] = {}
    for metrics in per_process:
        for key, value in metrics.items():
            if key in MAX_METRICS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    sweeps = out.get("nonlinear.sweeps", 0)
    out["nonlinear.sweep_s"] = out["nonlinear.picard_s"] / sweeps if sweeps else 0.0
    return out


def load(path: str) -> List[Dict]:
    with open(path) as handle:
        return json.load(handle)


def import_breakdown(stderr: str) -> Dict[str, float]:
    """Seconds from ``python -X importtime -c "import rstokes.cli"`` output.

    import.rstokes_s is the cumulative time of the top-level rstokes
    imports.  A scipy subpackage counts its cumulative time where its own
    line appears; scipy.integrate is loaded lazily from inside scipy.stats
    and prints no package line, so it falls back to the summed self time of
    its submodules.
    """
    packages = {"import.scipy_signal_s": "scipy.signal",
                "import.scipy_integrate_s": "scipy.integrate"}
    rstokes_s = 0.0
    cumulative = dict.fromkeys(packages, None)
    own = dict.fromkeys(packages, 0.0)
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if fields[2][1:].startswith("rstokes"):
            rstokes_s += int(fields[1]) / 1e6
        for metric, package in packages.items():
            if name == package:
                cumulative[metric] = int(fields[1]) / 1e6
            elif name.startswith(package + "."):
                own[metric] += int(fields[0]) / 1e6
    out = {"import.rstokes_s": rstokes_s}
    for metric in packages:
        out[metric] = own[metric] if cumulative[metric] is None else cumulative[metric]
    return out
