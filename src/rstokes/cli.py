"""Command-line driver: relax / solve / verify / certify / inverse.

Loads a JSON config, applies dotted --set overrides, validates every field
up front, runs the requested pipeline, and lands CSV artifacts plus a
summary.json recording versions, the config hash, wall time, and the
pass/fail certificates of the run.

Exit codes: 0 success, 1 invalid config or problem data, 2 solver
non-convergence (artifacts produced before the failure are kept).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np
import scipy

from . import __version__
from .config import (
    ConfigError,
    apply_overrides,
    build_domain_basis,
    build_grid,
    build_history_kernel,
    build_initial,
    build_kernel,
    build_nonlinearity,
    config_hash,
    load_config,
    nonlinearity_from_section,
    validate_config,
)
from .csvio import read_field_csv, read_series_csv, write_csv
from .inverse import (
    InverseProblem,
    KernelGateFailed,
    PairingTooSmall,
    reconstruct,
)
from .kernels import DEFAULT_THETAS, certify_completely_positive, certify_pc
from .nonlinear import (
    NonConvergence,
    PicardOptions,
    holder_estimate,
    picard_solve,
)
from .relaxation import relaxation_batch, verify_relaxation
from .resolvent import build_resolvent, verify_sol_op_bounds
from .spectral import hnorm

OUT_ENV = "RSTOKES_OUT"


def _emit(path: str, header, rows, artifacts: List[str], quiet: bool) -> None:
    write_csv(path, header, rows)
    artifacts.append(path)
    if not quiet:
        print(f"wrote {path}")


def _relax_inputs(cfg: Dict):
    problem = cfg.get("problem", {})
    if problem.get("lambdas"):
        lams = np.asarray(problem["lambdas"], dtype=float)
    else:
        lams = build_domain_basis(cfg).eigenvalues
    return build_kernel(cfg), lams, build_grid(cfg)


def cmd_relax(cfg: Dict, out: str, artifacts: List[str],
              certificates: Dict, quiet: bool) -> None:
    kernel, lams, grid = _relax_inputs(cfg)
    table = relaxation_batch(kernel, lams, grid)
    header = ["t"] + [f"omega(lambda_{i + 1})" for i in range(lams.size)]
    rows = (
        [grid.nodes[i]] + list(table.omega[i]) for i in range(grid.nodes.size)
    )
    _emit(os.path.join(out, "omega.csv"), header, rows, artifacts, quiet)

    tol = cfg.get("verify", {}).get("tol", 1e-8)
    report = verify_relaxation(table, kernel, tol=tol)
    _emit(
        os.path.join(out, "properties.csv"),
        ["property", "lambda", "worst_margin", "pass"],
        ((r.name, r.lam, r.worst_margin, r.passed) for r in report.rows),
        artifacts,
        quiet,
    )
    certificates["relaxation_properties"] = "pass" if report.passed else "fail"
    certificates["scheme"] = table.scheme


def cmd_solve(cfg: Dict, out: str, artifacts: List[str],
              certificates: Dict, quiet: bool) -> None:
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    spec = build_nonlinearity(cfg)
    ell = build_history_kernel(cfg)
    xi = build_initial(cfg, basis)
    problem = cfg.get("problem", {})
    opts = PicardOptions(
        tol=problem.get("tol", 1e-10),
        max_iter=int(problem.get("max_iter", 200)),
        beta=problem.get("beta", 0.0),
    )
    ctx = build_resolvent(kernel, basis, grid)
    certificates["scheme"] = ctx.table.scheme
    try:
        sol = picard_solve(ctx, spec, ell, xi, opts)
    except NonConvergence as exc:
        _emit(
            os.path.join(out, "iterations.csv"),
            ["iteration", "residual"],
            ((i + 1, r) for i, r in enumerate(exc.residuals)),
            artifacts,
            quiet,
        )
        certificates["picard_converged"] = "fail"
        raise

    mu = spec.mu
    k_cols = int(problem.get("coeff_columns", min(8, basis.eigenvalues.size)))
    k_cols = min(k_cols, basis.eigenvalues.size)
    l2 = hnorm(sol.coeffs, basis, 0.0)
    hm = hnorm(sol.coeffs, basis, mu)
    header = ["t", "||u||_L2", "||u||_Hmu"] + [
        f"coeff_{j + 1}" for j in range(k_cols)
    ]
    rows = (
        [grid.nodes[i], l2[i], hm[i]] + list(sol.coeffs[i, :k_cols])
        for i in range(grid.nodes.size)
    )
    _emit(os.path.join(out, "states.csv"), header, rows, artifacts, quiet)
    _emit(
        os.path.join(out, "iterations.csv"),
        ["iteration", "residual"],
        ((i + 1, r) for i, r in enumerate(sol.residuals)),
        artifacts,
        quiet,
    )

    gamma = problem.get("gamma", 0.4)
    holder = holder_estimate(sol, gamma, ell=ell)
    holder_rows = [
        ("gamma", holder.gamma),
        ("mu", holder.mu),
        ("t_min", holder.t_min),
        ("seminorm", holder.seminorm),
        ("t_at", holder.t_at),
        ("h_at", holder.h_at),
        ("history_weight_sup", holder.ell_star1),
        ("history_weight_sup_doubled", holder.ell_star2),
        ("gamma_in_range", holder.gamma_in_range),
    ]
    _emit(
        os.path.join(out, "holder.csv"),
        ["quantity", "value"],
        holder_rows,
        artifacts,
        quiet,
    )
    certificates["picard_converged"] = "pass" if sol.converged else "fail"
    certificates["holder_seminorm_finite"] = (
        "pass" if np.isfinite(holder.seminorm) else "fail"
    )


def cmd_verify(cfg: Dict, out: str, artifacts: List[str],
               certificates: Dict, quiet: bool) -> None:
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    opts = cfg.get("verify", {})
    tol = opts.get("tol", 1e-8)

    ctx = build_resolvent(kernel, basis, grid)
    relax_report = verify_relaxation(ctx.table, kernel, tol=tol)
    op_report = verify_sol_op_bounds(
        ctx,
        mu=opts.get("mu", 1.0),
        delta=opts.get("delta", 0.5),
        n_trials=int(opts.get("trials", 20)),
        seed=int(opts.get("seed", 0)),
        tol=tol,
    )

    rows = []
    for name in (
        "positivity",
        "upper_bound",
        "monotone_time",
        "integral_bound",
        "monotone_lambda",
    ):
        per_lambda = [r for r in relax_report.rows if r.name == name]
        if not per_lambda:
            continue
        worst = min(per_lambda, key=lambda r: r.worst_margin)
        status = "pass" if all(r.passed for r in per_lambda) else "fail"
        rows.append(
            (
                f"relaxation_{name}",
                worst.t_worst,
                worst.worst_margin,
                status,
                f"worst at lambda={worst.lam:.6g}",
            )
        )
        certificates[f"relaxation_{name}"] = status
    for check in op_report.rows:
        rows.append(
            (check.label, check.t_worst, check.worst_margin, check.status,
             check.reason)
        )
        certificates[check.label] = check.status
    _emit(
        os.path.join(out, "verify_report.csv"),
        ["lemma_item", "t", "worst_margin", "pass/skip", "reason"],
        rows,
        artifacts,
        quiet,
    )


def cmd_certify(cfg: Dict, out: str, artifacts: List[str],
                certificates: Dict, quiet: bool) -> None:
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    opts = cfg.get("certify", {})
    thetas = opts.get("thetas", list(DEFAULT_THETAS))
    tol = opts.get("tol", 1e-8)

    cp = certify_completely_positive(kernel, grid, thetas, tol=tol)
    pc = certify_pc(kernel, grid, tol=tol)

    rows = []
    for i, theta in enumerate(cp.thetas):
        ok_s = cp.min_s[i] >= -tol
        ok_r = cp.min_r[i] >= -tol
        rows.append(
            ("completely_positive_s", theta, cp.min_s[i],
             "pass" if ok_s else "fail")
        )
        rows.append(
            ("completely_positive_r", theta, cp.min_r[i],
             "pass" if ok_r else "fail")
        )
    pc_value = pc.min_k if pc.min_k is not None else ""
    rows.append(("unbounded_splitting", "", pc_value, pc.status))
    _emit(
        os.path.join(out, "certificates.csv"),
        ["certificate", "theta", "worst_value", "status"],
        rows,
        artifacts,
        quiet,
    )
    certificates["completely_positive"] = "pass" if cp.passed else "fail"
    certificates["unbounded_splitting"] = pc.status
    certificates["unbounded_splitting_reason"] = pc.reason


def cmd_inverse(cfg: Dict, out: str, artifacts: List[str],
                certificates: Dict, quiet: bool) -> None:
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    inv = cfg["inverse"]
    n = basis.eigenvalues.size

    g = read_field_csv(inv["g_path"], n)
    kappa = read_field_csv(inv["kappa_path"], n)
    t_psi, psi = read_series_csv(inv["psi_path"])
    if psi.size != grid.nodes.size or not np.allclose(
        t_psi, grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, grid.horizon)
    ):
        raise ConfigError(
            [
                f"inverse.psi_path: time column does not match the grid "
                f"({psi.size} samples vs {grid.nodes.size} nodes)"
            ]
        )
    psi_prime = None
    if inv.get("psi_prime_path"):
        t_prime, psi_prime = read_series_csv(inv["psi_prime_path"])
        if psi_prime.size != grid.nodes.size or not np.allclose(
            t_prime, grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, grid.horizon)
        ):
            raise ConfigError(
                ["inverse.psi_prime_path: time column does not match the grid"]
            )

    xi = build_initial(cfg, basis)
    f1 = _nonlinearity_or_none(cfg)
    problem = InverseProblem(
        basis=basis,
        grid=grid,
        kernel=kernel,
        g=g,
        kappa=kappa,
        xi=xi,
        f1=f1,
        psi=psi,
        psi_prime=psi_prime,
        pairing_floor=inv.get("pairing_floor", 1e-12),
    )
    opts = PicardOptions(
        tol=inv.get("tol", 1e-6), max_iter=int(inv.get("max_iter", 200))
    )
    try:
        rec = reconstruct(problem, opts)
    except NonConvergence as exc:
        _emit(
            os.path.join(out, "iterations.csv"),
            ["iteration", "residual"],
            ((i + 1, r) for i, r in enumerate(exc.residuals)),
            artifacts,
            quiet,
        )
        certificates["reconstruction_converged"] = "fail"
        raise

    nodes = grid.nodes
    _emit(
        os.path.join(out, "p_recovered.csv"),
        ["t", "p"],
        ((nodes[i], rec.p[i]) for i in range(nodes.size)),
        artifacts,
        quiet,
    )
    _emit(
        os.path.join(out, "residual.csv"),
        ["t", "measurement_residual"],
        ((nodes[i], rec.measurement_residual[i]) for i in range(nodes.size)),
        artifacts,
        quiet,
    )
    _emit(
        os.path.join(out, "iterations.csv"),
        ["iteration", "residual"],
        ((i + 1, r) for i, r in enumerate(rec.solution.residuals)),
        artifacts,
        quiet,
    )
    certificates["reconstruction_converged"] = (
        "pass" if rec.solution.converged else "fail"
    )
    certificates["max_measurement_residual"] = rec.max_residual
    certificates["pairing"] = rec.pairing


def _nonlinearity_or_none(cfg: Dict):
    section = cfg.get("inverse", {}).get("f1")
    if section is None:
        return None
    return nonlinearity_from_section(section)


COMMANDS = {
    "relax": cmd_relax,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "inverse": cmd_inverse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstokes",
        description=(
            "Mode-wise relaxation solver for diffusion with a memory-damped "
            "Laplacian: relaxation profiles, mild solutions, structural "
            "verification, kernel certificates, and source recovery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "relax": "tabulate relaxation profiles and their property report",
        "solve": "run the fixed-point solver and emit state norms",
        "verify": "check the operator-family bounds on random trials",
        "certify": "certify kernel hypotheses (complete positivity, splitting)",
        "inverse": "recover the source intensity from a measurement series",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument(
            "--out",
            default=None,
            help=f"output directory (default ${OUT_ENV} or ./out)",
        )
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, repeatable (e.g. grid.N_t=2048)",
        )
        cmd.add_argument(
            "--grid",
            type=int,
            default=None,
            metavar="N",
            help="shortcut override for grid.N_t",
        )
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or os.environ.get(OUT_ENV) or "out"

    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        if args.grid is not None:
            cfg.setdefault("grid", {})["N_t"] = args.grid
        validate_config(cfg, args.command)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(out, exist_ok=True)
    artifacts: List[str] = []
    certificates: Dict = {}
    started = time.perf_counter()
    status = "ok"
    exit_code = 0
    try:
        COMMANDS[args.command](cfg, out, artifacts, certificates, args.quiet)
    except NonConvergence as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        status = "non-convergence"
        exit_code = 2
    except (PairingTooSmall, KernelGateFailed, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = {
        "subcommand": args.command,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "config_hash": config_hash(cfg),
        "wall_time_s": time.perf_counter() - started,
        "status": status,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "certificates": certificates,
    }
    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not args.quiet:
        print(f"wrote {summary_path}")
        print(f"status: {status}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
