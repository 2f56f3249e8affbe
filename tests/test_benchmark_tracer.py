"""The benchmark's span tracer against the library it wraps.

``perfbench/tracer.py`` wraps library functions under the names they are
bound to and reads their results: the rule second_kind_solve returns, a
basis's node matrices, a Picard solve's sweep count.  One traced op of each
command runs here through ``rstokes.cli.main`` at small sizes, so a refactor
that renames a wrapped function or changes what it returns fails in the test
suite, and not only in a traced benchmark run.
"""

import json
import os
import sys

import numpy as np
import pytest

from rstokes import (InverseProblem, Interval, MemoryKernel, TimeGrid, build_basis,
                     cli, forward_simulate)
from rstokes.csvio import write_csv, write_field_csv

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import tracer  # noqa: E402

INTERVAL = {"shape": "interval", "L": 1.0, "N": 4}
FRACTIONAL = {"kind": "fractional", "m0": 1.0, "alpha": 0.5}
EXPONENTIAL = {"kind": "exponential", "m0": 1.0, "decay": 2.0}
POWER = {"kind": "polynomial_power", "power": 2.0, "scale": 0.5}
HISTORY = {"kind": "exponential", "amplitude": 1.0, "decay": 1.0}
INITIAL = {"preset": "first_mode", "amplitude": 0.1}

CONFIGS = {
    "relax": {"domain": INTERVAL, "grid": {"T": 1.0, "N_t": 64}, "kernel": FRACTIONAL},
    "solve-interval": {
        "domain": INTERVAL, "grid": {"T": 1.0, "N_t": 64}, "kernel": FRACTIONAL,
        "nonlinearity": POWER, "history_kernel": HISTORY, "initial": INITIAL,
    },
    "solve-rectangle": {
        "domain": {"shape": "rectangle", "Lx": 1.0, "Ly": 1.0, "N": 4},
        "grid": {"T": 1.0, "N_t": 32}, "kernel": EXPONENTIAL,
        "nonlinearity": {"kind": "sum", "parts": [
            POWER, {"kind": "advection_history", "chi": [0.3, 0.2]}]},
        "history_kernel": HISTORY, "initial": INITIAL,
    },
    "verify": {"domain": INTERVAL, "grid": {"T": 1.0, "N_t": 64}, "kernel": FRACTIONAL,
               "verify": {"trials": 2}},
    "certify": {"grid": {"T": 1.0, "N_t": 64}, "kernel": FRACTIONAL},
}

# spans each op must record: a wrapper that no longer fits its binding
# records none
SPANS = {
    "relax": {"relaxation.batch", "volterra.second_kind", "relaxation.verify"},
    "solve-interval": {"volterra.second_kind", "nonlinear.picard", "spectral.build_basis",
                       "csvio.write"},
    "solve-rectangle": {"volterra.second_kind", "nonlinear.picard", "nonlinear.history",
                        "spectral.project", "spectral.build_basis"},
    "verify": {"volterra.second_kind", "resolvent.verify", "relaxation.verify"},
    "certify": {"kernels.certify", "volterra.second_kind"},
    "inverse": {"volterra.second_kind", "inverse.reconstruct", "csvio.read"},
}


def write_inverse_config(directory):
    # the inverse workload's problem (g = kappa = 1/n^2 on an interval of
    # length 4, no reaction) at 8 modes and 64 steps
    basis = build_basis(Interval(4.0), 8)
    grid = TimeGrid.uniform(1.0, 64)
    g = 1.0 / np.arange(1, 9) ** 2
    problem = InverseProblem(basis=basis, grid=grid, kernel=MemoryKernel.exponential(1.0, 2.0),
                             g=g, kappa=g, xi=np.zeros(8))
    _, psi = forward_simulate(problem, 1.0 + np.sin(2.0 * np.pi * grid.nodes))
    paths = {name: os.path.join(directory, f"{name}.csv") for name in ("psi", "g", "kappa")}
    write_csv(paths["psi"], ["t", "psi"], zip(grid.nodes, psi))
    write_field_csv(paths["g"], basis.eigenvalues, g)
    write_field_csv(paths["kappa"], basis.eigenvalues, g)
    return {
        "domain": {"shape": "interval", "L": 4.0, "N": 8},
        "grid": {"T": 1.0, "N_t": 64},
        "kernel": EXPONENTIAL,
        "inverse": {f"{name}_path": path for name, path in paths.items()},
    }


@pytest.mark.parametrize("op", list(SPANS))
def test_a_traced_op_records_its_layers(tmp_path, op):
    payload = write_inverse_config(tmp_path) if op == "inverse" else CONFIGS[op]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    argv = [op.split("-")[0], "--config", str(config), "--out", str(tmp_path / "out"),
            "--quiet"]
    recorder = tracer.Recorder()
    restore = tracer.install(recorder)
    try:
        code = cli.main(argv)
    finally:
        restore()
    assert code == 0
    assert not hasattr(cli.main, "__wrapped__")
    trace = tmp_path / "trace.json"
    recorder.dump(str(trace))
    spans = tracer.load(str(trace))
    assert spans[0]["name"] == "cli.main"
    assert SPANS[op] <= {s["name"] for s in spans}
    metrics = tracer.layer_metrics(spans)
    assert set(tracer.SPAN_METRICS) <= set(metrics)
    assert metrics["trace.spans"] == len(spans)
    assert metrics["volterra.second_kind_madds"] > 0
    if op.startswith("solve"):
        assert metrics["nonlinear.sweeps"] > 0
        assert metrics["spectral.nodes"] > 0 and metrics["spectral.matrix_mb"] > 0
