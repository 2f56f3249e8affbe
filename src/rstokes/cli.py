"""Command-line driver: relax / solve / verify / certify / inverse.

Loads a JSON config, applies dotted --set overrides, validates every field
up front, runs the requested pipeline, and lands CSV artifacts plus a
summary.json recording versions, the config hash, wall time, and the
pass/fail certificates of the run.  ``relax``, ``solve``, ``verify`` and
``inverse`` add their quadrature scheme and the numbers that chose it
(``scheme_decision``); ``solve`` and ``inverse`` add the method of their
solve ("sweeps" or, for an ``inverse`` run without a reaction, "direct"),
the Picard residuals, the sweep-to-sweep ratios and whether the sweeps
convolved the history, and a direct solve its fixed-point defect, on exit 0
and on exit 2.  ``inverse`` records its rule, and runs its problem-data
checks (exit 1), before it builds any table.

Each command is a function of ``(cfg, emit, records)``.  ``emit(name,
header, rows)`` is made once in ``main``: it writes one CSV artifact into
the output directory and lists it in the summary.  ``records`` holds the
top-level summary entries the command adds, its certificates included.
``main`` owns the exit code and the status.

Exit codes: 0 success, 1 invalid config, problem data, an allocation the
system refuses, or an input or output path that cannot be used (no summary
is written, and an earlier run's summary in the output directory is
removed), 2 solver
non-convergence, or a direct solve whose p is not finite (artifacts
produced before the failure are kept).

Importing this module loads ``config`` and ``csvio`` (and the grids,
kernels and volterra modules config reads its kernel keys from); each
``cmd_*`` imports the layers it runs, so ``certify`` loads no other module
and only ``inverse`` loads them all.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .kernels import CHECK_TOL

OUT_ENV = "RSTOKES_OUT"


def _iterations(residuals):
    """Header and rows of iterations.csv: one row per Picard sweep (none for
    a direct solve)."""
    return ["iteration", "residual"], [(i + 1, r) for i, r in enumerate(residuals)]


def _finite_or_none(value):
    # strict JSON holds no inf or nan
    return value if value is not None and math.isfinite(value) else None


def _picard_record(residuals, history_convolution: bool, method: str = "sweeps",
                   defect=None) -> Dict:
    """summary.json["picard"]: the method, "sweeps" or "direct"; each
    sweep's residual (none for a direct solve), its ratio to the previous
    sweep's, and whether the sweeps evaluated ell * u (only for a reaction
    that reads it); a direct solve adds the relative defect of its
    fixed-point equation (null on exit 2).  A diverging solve can leave an
    infinite residual, which strict JSON cannot hold: non-finite values are
    null."""
    residuals = [float(r) for r in residuals]
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    record = {
        "method": method,
        "residuals": [_finite_or_none(r) for r in residuals],
        "ratios": [_finite_or_none(r) for r in ratios],
        "history_convolution": history_convolution,
    }
    if method == "direct":
        record["fixed_point_defect"] = _finite_or_none(defect)
    return record


def _picard(solve, emit, records: Dict, certificate: str, history_convolution: bool):
    """Return ``solve()``.  If it does not converge, the exit-2 record
    (iterations.csv, summary["picard"] with the method the error names, and
    the failed ``certificate``) is written before the error goes on to
    ``main``."""
    from .nonlinear import NonConvergence

    try:
        return solve()
    except NonConvergence as exc:
        emit("iterations.csv", *_iterations(exc.residuals))
        records["picard"] = _picard_record(exc.residuals, history_convolution, exc.method)
        records["certificates"][certificate] = "fail"
        raise


def _overall(rows) -> str:
    """"fail" if any Check row fails, else "pass"."""
    return "fail" if any(r.status == "fail" for r in rows) else "pass"


def cmd_relax(cfg: Dict, emit, records: Dict) -> None:
    from .relaxation import relaxation_batch, verify_relaxation
    from .volterra import scheme_decision

    lambdas = cfg.get("problem", {}).get("lambdas")
    if lambdas:
        lams = np.asarray(lambdas, dtype=float)
    else:
        lams = build_domain_basis(cfg).eigenvalues
    kernel, grid = build_kernel(cfg), build_grid(cfg)
    decision = scheme_decision(kernel.a_moments, grid, lams)
    records["scheme_decision"] = decision
    table = relaxation_batch(kernel, lams, grid, decision["scheme"])
    header = ["t"] + [f"omega(lambda_{i + 1})" for i in range(lams.size)]
    emit("omega.csv", header, np.column_stack((table.grid.nodes, table.omega)))

    rows = verify_relaxation(table, tol=cfg.get("verify", {}).get("tol", CHECK_TOL))
    emit("properties.csv", ["property", "lambda", "worst_margin", "pass"],
         ((r.name, r.param, r.worst_margin, r.status == "pass") for r in rows))
    certificates = records["certificates"]
    certificates["relaxation_properties"] = _overall(rows)
    certificates["scheme"] = table.scheme


def cmd_solve(cfg: Dict, emit, records: Dict) -> None:
    from .nonlinear import (PicardOptions, convolves_history, holder_estimate,
                            picard_solve)
    from .resolvent import build_resolvent
    from .spectral import hnorm
    from .volterra import scheme_decision

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
    decision = scheme_decision(kernel.a_moments, grid, basis.eigenvalues)
    records["scheme_decision"] = decision
    ctx = build_resolvent(kernel, basis, grid, decision["scheme"])
    certificates["scheme"] = ctx.table.scheme
    convolves = convolves_history(spec, ell)
    sol = _picard(lambda: picard_solve(ctx, spec, ell, xi, opts), emit, records,
                  "picard_converged", convolves)
    records["picard"] = _picard_record(sol.residuals, convolves)

    k_cols = min(int(problem.get("coeff_columns", 8)), basis.eigenvalues.size)
    header = ["t", "||u||_L2", "||u||_Hmu"] + [
        f"coeff_{j + 1}" for j in range(k_cols)
    ]
    l2 = hnorm(sol.coeffs, basis, 0.0)
    hm = hnorm(sol.coeffs, basis, spec.mu)
    emit("states.csv", header,
         np.column_stack((grid.nodes, l2, hm, sol.coeffs[:, :k_cols])))
    emit("iterations.csv", *_iterations(sol.residuals))

    holder = holder_estimate(sol, problem.get("gamma", 0.4), ell=ell, delta=spec.delta)
    emit("holder.csv", ["quantity", "value"], [
        ("gamma", holder.gamma),
        ("mu", holder.mu),
        ("t_min", holder.t_min),
        ("seminorm", holder.seminorm),
        ("t_at", holder.t_at),
        ("h_at", holder.h_at),
        ("history_weight_sup", holder.ell_star1),
        ("history_weight_sup_doubled", holder.ell_star2),
        ("gamma_in_range", holder.gamma_in_range),
    ])
    certificates["picard_converged"] = "pass"
    certificates["holder_seminorm_finite"] = (
        "pass" if np.isfinite(holder.seminorm) else "fail"
    )


def cmd_verify(cfg: Dict, emit, records: Dict) -> None:
    from .relaxation import verify_relaxation
    from .resolvent import build_resolvent, verify_sol_op_bounds
    from .volterra import scheme_decision

    certificates = records["certificates"]
    basis = build_domain_basis(cfg)
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    opts = cfg.get("verify", {})
    tol = opts.get("tol", CHECK_TOL)

    decision = scheme_decision(kernel.a_moments, grid, basis.eigenvalues)
    records["scheme_decision"] = decision
    ctx = build_resolvent(kernel, basis, grid, decision["scheme"])
    certificates["scheme"] = ctx.table.scheme
    relax_rows = verify_relaxation(ctx.table, tol=tol)
    op_rows = verify_sol_op_bounds(
        ctx,
        mu=opts.get("mu", 1.0),
        delta=opts.get("delta", 0.5),
        n_trials=int(opts.get("trials", 20)),
        seed=int(opts.get("seed", 0)),
        tol=tol,
    )

    rows = []
    # each property once, in the report's order, as its worst lambda's row:
    # one tol for all, so the worst row fails exactly when any row does
    for name in dict.fromkeys(r.name for r in relax_rows):
        worst = min((r for r in relax_rows if r.name == name),
                    key=lambda r: r.worst_margin)
        rows.append((f"relaxation_{name}", worst.t_worst, worst.worst_margin,
                     worst.status, f"worst at lambda={worst.param:.6g}"))
    rows += [(r.name, r.t_worst, r.worst_margin, r.status, r.reason) for r in op_rows]
    for name, _, _, status, _ in rows:
        certificates[name] = status
    emit("verify_report.csv",
         ["lemma_item", "t", "worst_margin", "pass/skip", "reason"], rows)


def cmd_certify(cfg: Dict, emit, records: Dict) -> None:
    from .kernels import DEFAULT_THETAS, certify_completely_positive, certify_pc

    certificates = records["certificates"]
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    opts = cfg.get("certify", {})
    thetas = opts.get("thetas", list(DEFAULT_THETAS))
    tol = opts.get("tol", CHECK_TOL)

    cp = certify_completely_positive(kernel, grid, thetas, tol=tol)
    pc = certify_pc(kernel, grid, tol=tol)
    # a row without a theta or a margin leaves its cell empty
    emit("certificates.csv", ["certificate", "theta", "worst_value", "status"],
         ((r.name, "" if r.param is None else r.param,
           "" if math.isnan(r.worst_margin) else r.worst_margin, r.status)
          for r in [*cp, pc]))
    certificates["completely_positive"] = _overall(cp)
    certificates["unbounded_splitting"] = pc.status
    certificates["unbounded_splitting_reason"] = pc.reason


def cmd_inverse(cfg: Dict, emit, records: Dict) -> None:
    from .inverse import InverseProblem, identification_decision, reconstruct
    from .nonlinear import PicardOptions

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
    f1 = inv.get("f1")
    problem = InverseProblem(
        basis=basis,
        grid=grid,
        kernel=kernel,
        g=g,
        kappa=kappa,
        xi=xi,
        f1=None if f1 is None else nonlinearity_from_section(f1),
        psi=psi,
        psi_prime=psi_prime,
        pairing_floor=inv.get("pairing_floor", 1e-12),
    )
    opts = PicardOptions(
        tol=inv.get("tol", 1e-6), max_iter=int(inv.get("max_iter", 200))
    )
    # known without a table: exit 2 records it, and exit 1 builds no table
    decision = identification_decision(problem)
    records["scheme_decision"] = decision
    certificates["scheme"] = decision["scheme"]
    # the identification solve has no ell, so its sweeps convolve no history
    rec = _picard(lambda: reconstruct(problem, opts, decision["scheme"]), emit, records,
                  "reconstruction_converged", False)
    records["picard"] = _picard_record(rec.residuals, False, rec.method, rec.defect)

    emit("p_recovered.csv", ["t", "p"], np.column_stack((grid.nodes, rec.p)))
    emit("residual.csv", ["t", "measurement_residual"],
         np.column_stack((grid.nodes, rec.measurement_residual)))
    emit("iterations.csv", *_iterations(rec.residuals))
    certificates["reconstruction_converged"] = "pass"
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


def _non_convergence():
    """The solver's NonConvergence, or no class before a command has loaded
    it: only solve and inverse raise it, and both import it first."""
    nonlinear = sys.modules.get(f"{__package__}.nonlinear")
    return () if nonlinear is None else nonlinear.NonConvergence


# each command and its one-line help
COMMANDS = {
    "relax": (cmd_relax, "tabulate relaxation profiles and their property report"),
    "solve": (cmd_solve, "run the fixed-point solver and emit state norms"),
    "verify": (cmd_verify, "check the operator-family bounds on random trials"),
    "certify": (cmd_certify,
                "certify kernel hypotheses (complete positivity, splitting)"),
    "inverse": (cmd_inverse, "recover the source intensity from a measurement series"),
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
    for name, (_, help_text) in COMMANDS.items():
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

    artifacts: List[str] = []

    def emit(name: str, header, rows) -> None:
        path = write_csv(os.path.join(out, name), header, rows)
        artifacts.append(name)
        if not args.quiet:
            print(f"wrote {path}")

    # top-level summary entries a command records, its certificates included
    records: Dict = {"certificates": {}}
    status = "ok"
    summary_path = os.path.join(out, "summary.json")
    # ValueError: ConfigError, PairingTooSmall, KernelGateFailed; OSError: an
    # output path that cannot be made or written, or an input read that fails;
    # MemoryError: an allocation the system refuses (a grid too large to hold)
    try:
        os.makedirs(out, exist_ok=True)
        # a run that ends in exit 1 must not leave an earlier run's summary
        with contextlib.suppress(FileNotFoundError):
            os.remove(summary_path)
        started = time.perf_counter()
        try:
            COMMANDS[args.command][0](cfg, emit, records)
        except _non_convergence() as exc:
            print(f"error: solver did not converge: {exc}", file=sys.stderr)
            status = "non-convergence"
        summary = {
            "subcommand": args.command,
            "package_version": __version__,
            "python_version": sys.version.split()[0],
            "numpy_version": np.__version__,
            "config_hash": config_hash(cfg),
            "wall_time_s": time.perf_counter() - started,
            "status": status,
            "artifacts": artifacts,
            **records,
        }
        with open(summary_path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {summary_path}")
        print(f"status: {status}")
    return 0 if status == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
