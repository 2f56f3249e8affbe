"""Command-line driver: relax / solve / verify / certify / inverse.

Loads a JSON config, applies dotted --set overrides, validates every field
up front, runs the requested pipeline, and lands CSV artifacts plus a
summary.json recording versions, the config hash, wall time, and the
pass/fail certificates of the run; ``relax``, ``solve`` and ``inverse`` add
their quadrature scheme, and ``solve`` and ``inverse`` their Picard
residuals, the sweep-to-sweep ratios and whether the sweeps convolved the
history, on exit 0 and on exit 2; ``inverse`` records its rule, and runs
its problem-data checks (exit 1), before it builds any table.

Exit codes: 0 success, 1 invalid config or problem data, 2 solver
non-convergence (artifacts produced before the failure are kept).

Importing this module loads ``config`` and ``csvio`` (and the grids,
kernels and volterra modules config reads its kernel keys from); each
``cmd_*`` imports the layers it runs, so ``certify`` loads no other module
and only ``inverse`` loads them all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, List

import numpy as np

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

OUT_ENV = "RSTOKES_OUT"


def _emit(path: str, header, rows, artifacts: List[str], quiet: bool) -> None:
    write_csv(path, header, rows)
    artifacts.append(path)
    if not quiet:
        print(f"wrote {path}")


def _emit_iterations(out: str, residuals, artifacts: List[str], quiet: bool) -> None:
    _emit(
        os.path.join(out, "iterations.csv"),
        ["iteration", "residual"],
        ((i + 1, r) for i, r in enumerate(residuals)),
        artifacts,
        quiet,
    )


def _picard_record(residuals, history_convolution: bool) -> Dict:
    """summary.json["picard"]: each sweep's residual, its ratio to the
    previous sweep's, and whether the sweeps evaluated ell * u (only for a
    reaction that reads it).  A diverging solve can leave an infinite
    residual, which strict JSON cannot hold: non-finite values are null."""
    residuals = [float(r) for r in residuals]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    return {
        "residuals": [r if math.isfinite(r) else None for r in residuals],
        "ratios": [r if math.isfinite(r) else None for r in ratios],
        "history_convolution": history_convolution,
    }


def _relax_inputs(cfg: Dict):
    problem = cfg.get("problem", {})
    if problem.get("lambdas"):
        lams = np.asarray(problem["lambdas"], dtype=float)
    else:
        lams = build_domain_basis(cfg).eigenvalues
    return build_kernel(cfg), lams, build_grid(cfg)


def cmd_relax(cfg: Dict, out: str, artifacts: List[str],
              records: Dict, quiet: bool) -> None:
    from .relaxation import relaxation_batch, verify_relaxation

    certificates = records["certificates"]
    kernel, lams, grid = _relax_inputs(cfg)
    table = relaxation_batch(kernel, lams, grid)
    header = ["t"] + [f"omega(lambda_{i + 1})" for i in range(lams.size)]
    rows = np.column_stack((grid.nodes, table.omega))
    _emit(os.path.join(out, "omega.csv"), header, rows, artifacts, quiet)

    tol = cfg.get("verify", {}).get("tol", 1e-8)
    report = verify_relaxation(table, tol=tol)
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
              records: Dict, quiet: bool) -> None:
    from .nonlinear import (NonConvergence, PicardOptions, convolves_history,
                            holder_estimate, picard_solve)
    from .resolvent import build_resolvent
    from .spectral import hnorm

    certificates = records["certificates"]
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
    convolves = convolves_history(spec, ell)
    try:
        sol = picard_solve(ctx, spec, ell, xi, opts)
    except NonConvergence as exc:
        _emit_iterations(out, exc.residuals, artifacts, quiet)
        records["picard"] = _picard_record(exc.residuals, convolves)
        certificates["picard_converged"] = "fail"
        raise
    records["picard"] = _picard_record(sol.residuals, convolves)

    mu = spec.mu
    k_cols = int(problem.get("coeff_columns", min(8, basis.eigenvalues.size)))
    k_cols = min(k_cols, basis.eigenvalues.size)
    l2 = hnorm(sol.coeffs, basis, 0.0)
    hm = hnorm(sol.coeffs, basis, mu)
    header = ["t", "||u||_L2", "||u||_Hmu"] + [
        f"coeff_{j + 1}" for j in range(k_cols)
    ]
    rows = np.column_stack((grid.nodes, l2, hm, sol.coeffs[:, :k_cols]))
    _emit(os.path.join(out, "states.csv"), header, rows, artifacts, quiet)
    _emit_iterations(out, sol.residuals, artifacts, quiet)

    gamma = problem.get("gamma", 0.4)
    holder = holder_estimate(sol, gamma, ell=ell, delta=spec.delta)
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
               records: Dict, quiet: bool) -> None:
    from .relaxation import verify_relaxation
    from .resolvent import build_resolvent, verify_sol_op_bounds

    certificates = records["certificates"]
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    opts = cfg.get("verify", {})
    tol = opts.get("tol", 1e-8)

    ctx = build_resolvent(kernel, basis, grid)
    relax_report = verify_relaxation(ctx.table, tol=tol)
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
                records: Dict, quiet: bool) -> None:
    from .kernels import DEFAULT_THETAS, certify_completely_positive, certify_pc

    certificates = records["certificates"]
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
                records: Dict, quiet: bool) -> None:
    from .inverse import InverseProblem, identification_scheme, reconstruct
    from .nonlinear import NonConvergence, PicardOptions

    certificates = records["certificates"]
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    inv = cfg["inverse"]
    n = basis.eigenvalues.size

    g = read_field_csv(inv["g_path"], n)
    kappa = read_field_csv(inv["kappa_path"], n)
    psi = _read_series_on_grid(inv, "psi_path", grid)
    psi_prime = None
    if inv.get("psi_prime_path"):
        psi_prime = _read_series_on_grid(inv, "psi_prime_path", grid)

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
    # known without a table: exit 2 records it, and exit 1 builds no table
    certificates["scheme"] = identification_scheme(problem)
    # the identification solve has no ell, so its sweeps convolve no history
    try:
        rec = reconstruct(problem, opts)
    except NonConvergence as exc:
        _emit_iterations(out, exc.residuals, artifacts, quiet)
        records["picard"] = _picard_record(exc.residuals, False)
        certificates["reconstruction_converged"] = "fail"
        raise
    records["picard"] = _picard_record(rec.solution.residuals, False)

    nodes = grid.nodes
    _emit(
        os.path.join(out, "p_recovered.csv"),
        ["t", "p"],
        np.column_stack((nodes, rec.p)),
        artifacts,
        quiet,
    )
    _emit(
        os.path.join(out, "residual.csv"),
        ["t", "measurement_residual"],
        np.column_stack((nodes, rec.measurement_residual)),
        artifacts,
        quiet,
    )
    _emit_iterations(out, rec.solution.residuals, artifacts, quiet)
    certificates["reconstruction_converged"] = (
        "pass" if rec.solution.converged else "fail"
    )
    certificates["max_measurement_residual"] = rec.max_residual
    certificates["pairing"] = rec.pairing


def _read_series_on_grid(inv: Dict, key: str, grid) -> np.ndarray:
    """Values of the (t, value) CSV at inverse.<key>; t must be the grid's nodes."""
    t, values = read_series_csv(inv[key])
    if values.size != grid.nodes.size or not np.allclose(
        t, grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, grid.horizon)
    ):
        raise ConfigError(
            [
                f"inverse.{key}: time column does not match the grid "
                f"({values.size} samples vs {grid.nodes.size} nodes)"
            ]
        )
    return values


def _nonlinearity_or_none(cfg: Dict):
    section = cfg.get("inverse", {}).get("f1")
    if section is None:
        return None
    return nonlinearity_from_section(section)


def _non_convergence():
    """The solver's NonConvergence, or no class before a command has loaded
    it: only solve and inverse raise it, and both import it first."""
    nonlinear = sys.modules.get(f"{__package__}.nonlinear")
    return () if nonlinear is None else nonlinear.NonConvergence


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
    # top-level summary entries a command records, its certificates included
    records: Dict = {"certificates": {}}
    started = time.perf_counter()
    status = "ok"
    exit_code = 0
    try:
        COMMANDS[args.command](cfg, out, artifacts, records, args.quiet)
    except _non_convergence() as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        status = "non-convergence"
        exit_code = 2
    except ValueError as exc:  # ConfigError, PairingTooSmall, KernelGateFailed
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = {
        "subcommand": args.command,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "config_hash": config_hash(cfg),
        "wall_time_s": time.perf_counter() - started,
        "status": status,
        "artifacts": [os.path.basename(a) for a in artifacts],
        **records,
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
