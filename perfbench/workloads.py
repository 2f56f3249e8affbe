"""Seeded inputs for the four benchmark workloads.

Every size is fixed per workload; the seed only picks data (the direction of
the initial state at a fixed norm, the phase of the true source, the verify
trial seed), so the work done by one op does not depend on the seed.  The
CLI sees nothing but the files written here.

Why each workload exists (see NOTES.md for the metric table):

solve-interval   the Volterra row loop building the 8192-step relaxation
                 table dominates, and states.csv (8193 rows) exercises CSV
                 formatting; the spectral layer is trivial.
solve-rectangle  nonlinearity synthesis and projection on 16,641 collocation
                 nodes dominate; the relaxation table is small.
inverse          10 Picard sweeps with the eliminated reaction term, forcing
                 and an m' history kernel: FFT convolutions and CSV reads.
verify           the only workload that runs certify and verify (random
                 trial bounds, the quad probe, first-kind solves).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

DEFAULT_SEED = 0


# the CLI processes of one op, in order: (subcommand, config file)
WORKLOADS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "solve-interval": (("solve", "solve.json"),),
    "solve-rectangle": (("solve", "solve.json"),),
    "inverse": (("inverse", "inverse.json"),),
    "verify": (("certify", "verify.json"), ("verify", "verify.json")),
}


def _direction(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    # the first mode plus a small random perturbation decaying like 1/n^2:
    # the seed moves every coefficient, but the size of the nonlinearity and
    # hence the Picard sweep count stay fixed (4 on every seed in BASELINE.json)
    d = 0.1 * rng.standard_normal(n_modes) / np.arange(1, n_modes + 1) ** 2
    d[0] += 1.0
    return d


def _solve_interval(rng: np.random.Generator) -> Dict[str, Dict]:
    n = 32
    lam = (np.arange(1, n + 1) * np.pi) ** 2
    d = _direction(rng, n)
    xi = d / np.sqrt(np.sum(lam * d * d))  # H^1 norm 1
    return {
        "solve.json": {
            "domain": {"shape": "interval", "L": 1.0, "N": n},
            "grid": {"T": 1.0, "N_t": 8192},
            "kernel": {"kind": "fractional", "m0": 1.0, "alpha": 0.5},
            "nonlinearity": {"kind": "polynomial_power", "power": 2.0, "scale": 0.5},
            "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
            "initial": {"coefficients": xi.tolist()},
            "problem": {"tol": 1e-10},
        }
    }


def _solve_rectangle(rng: np.random.Generator) -> Dict[str, Dict]:
    n = 64
    d = _direction(rng, n)
    xi = 0.01 * d / np.linalg.norm(d)  # amplitude (L2 norm) 0.01
    return {
        "solve.json": {
            "domain": {"shape": "rectangle", "Lx": 1.0, "Ly": 1.0, "N": n},
            "grid": {"T": 1.0, "N_t": 1024},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "nonlinearity": {
                "kind": "sum",
                "parts": [
                    {"kind": "polynomial_power", "power": 2.0},
                    {"kind": "advection_history", "chi": [0.3, 0.2]},
                ],
            },
            "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
            "initial": {"coefficients": xi.tolist()},
            "problem": {"tol": 1e-10},
        }
    }


def true_source(phase: float, t: np.ndarray) -> np.ndarray:
    return 1.0 + np.sin(2.0 * np.pi * t + phase)


def _verify(seed: int) -> Dict[str, Dict]:
    return {
        "verify.json": {
            "domain": {"shape": "interval", "L": 1.0, "N": 16},
            "grid": {"T": 1.0, "N_t": 8192},
            "kernel": {"kind": "fractional", "m0": 1.0, "alpha": 0.5},
            "verify": {"trials": 20, "seed": seed},
        }
    }


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _inverse(rng: np.random.Generator, directory: str) -> Tuple[Dict[str, Dict], Dict]:
    # the forward pass that makes the measurement runs here, untimed
    from rstokes import (Interval, InverseProblem, MemoryKernel, TimeGrid,
                         build_basis, forward_simulate)
    from rstokes.csvio import write_csv, write_field_csv

    # the phase moves the size of the Picard residuals; on [pi, 3pi/2] the
    # residual crosses tol 1e-6 at sweep 10 for every phase with margin
    # (sweep 9 >= 1.4e-6, sweep 10 <= 5e-7), so the work is fixed
    phase = float(rng.uniform(np.pi, 1.5 * np.pi))
    length, n, n_t = 4.0, 32, 4096
    basis = build_basis(Interval(length), n)
    grid = TimeGrid.uniform(1.0, n_t)
    g = 1.0 / np.arange(1, n + 1) ** 2
    problem = InverseProblem(
        basis=basis, grid=grid, kernel=MemoryKernel.exponential(1.0, 2.0),
        g=g, kappa=g, xi=np.zeros(n), psi=np.zeros(grid.nodes.size),
    )
    _, psi = forward_simulate(problem, true_source(phase, grid.nodes))
    paths = {k: os.path.join(directory, f"{k}.csv") for k in ("psi", "g", "kappa")}
    write_csv(paths["psi"], ["t", "psi"], zip(grid.nodes, psi))
    write_field_csv(paths["g"], basis.eigenvalues, g)
    write_field_csv(paths["kappa"], basis.eigenvalues, g)
    cfg = {
        "domain": {"shape": "interval", "L": length, "N": n},
        "grid": {"T": 1.0, "N_t": n_t},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "inverse": {
            "psi_path": paths["psi"],
            "g_path": paths["g"],
            "kappa_path": paths["kappa"],
            "tol": 1e-6,
        },
    }
    return {"inverse.json": cfg}, {"phase": phase}


def generate(workload: str, seed: int, directory: str) -> Dict:
    """Write the workload's configs (and data files) into directory.

    Returns what the checks need to know about the generated problem.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    facts: Dict = {}
    if workload == "solve-interval":
        configs = _solve_interval(rng)
    elif workload == "solve-rectangle":
        configs = _solve_rectangle(rng)
    elif workload == "inverse":
        configs, facts = _inverse(rng, os.path.abspath(directory))
    else:
        configs = _verify(seed)
    for name, payload in configs.items():
        _write_json(os.path.join(directory, name), payload)
    facts["configs"] = configs
    return facts


def op_argvs(workload: str, directory: str, out: str) -> List[List[str]]:
    """CLI argument lists of one op, in order; each writes into its own dir."""
    argvs = []
    for command, config in WORKLOADS[workload]:
        argvs.append([command, "--config", os.path.join(directory, config),
                      "--out", os.path.join(out, command), "--quiet"])
    return argvs
