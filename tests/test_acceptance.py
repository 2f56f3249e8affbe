"""Acceptance gate: pinned end-to-end tolerances for the whole solver suite.

Each test here states a contract (accuracy target, margin floor, iteration
budget, wall-time budget) that release builds must keep meeting.  Unit-level
coverage lives in the sibling files; these runs wire the layers together at
realistic sizes.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from rstokes import (
    HistoryKernel,
    Interval,
    InverseProblem,
    MemoryKernel,
    Nonlinearity,
    PicardOptions,
    TimeGrid,
    build_basis,
    build_resolvent,
    forward_simulate,
    holder_estimate,
    picard_solve,
    reciprocal_cumulative_integrable,
    reconstruct,
    relaxation_batch,
    verify_relaxation,
    verify_sol_op_bounds,
)

LAMBDAS = np.array([1.0, np.pi**2, 10.0])  # ascending: pi^2 < 10


# -- 1: relaxation profiles against closed forms ------------------------------


def test_relaxation_matches_exponential_closed_forms_fast():
    grid = TimeGrid.uniform(1.0, 4096)
    started = time.perf_counter()

    plain = relaxation_batch(MemoryKernel.zero(), LAMBDAS, grid)
    damped = relaxation_batch(MemoryKernel.constant(1.0), LAMBDAS, grid)
    for j, lam in enumerate(LAMBDAS):
        err_plain = np.max(np.abs(plain.omega[:, j] - np.exp(-lam * grid.nodes)))
        err_damped = np.max(
            np.abs(damped.omega[:, j] - np.exp(-2.0 * lam * grid.nodes))
        )
        assert err_plain <= 1e-4, (lam, err_plain)
        assert err_damped <= 1e-4, (lam, err_damped)

    assert time.perf_counter() - started < 1.0


# -- 2: structural profile properties at scale --------------------------------


def test_fractional_profile_properties_hold_on_32_modes():
    basis = build_basis(Interval(1.0), 32)
    grid = TimeGrid.uniform(1.0, 1024)
    started = time.perf_counter()

    table = relaxation_batch(MemoryKernel.fractional(1.0, 0.5), basis.eigenvalues, grid)
    rows = verify_relaxation(table, tol=1e-8)
    for name in ("upper_bound", "integral_bound", "monotone_lambda"):
        assert min(r.worst_margin for r in rows if r.name == name) >= -1e-8, name
    assert all(r.status == "pass" for r in rows)

    assert time.perf_counter() - started < 5.0


# -- 3: solution-operator family bounds ---------------------------------------


@pytest.mark.parametrize(
    "kernel",
    [MemoryKernel.exponential(1.0, 2.0), MemoryKernel.fractional(1.0, 0.5)],
    ids=["exponential", "fractional"],
)
def test_operator_family_bounds_hold_on_random_fields(kernel):
    basis = build_basis(Interval(1.0), 8)
    grid = TimeGrid.uniform(1.0, 256)
    ctx = build_resolvent(kernel, basis, grid)
    rows = verify_sol_op_bounds(
        ctx, mu=1.0, delta=0.5, n_trials=20, seed=0, tol=1e-8
    )
    row = {r.name: r for r in rows}

    assert row["sol_op_bound"].worst_margin >= -1e-12
    assert row["sol_op_bound"].status == "pass"

    decay = row["derivative_decay"]
    assert decay.status == "pass"
    assert decay.worst_margin >= -1e-8

    for label in ("conv_smoothing_l2", "conv_smoothing_singular"):
        assert row[label].status == "pass"
        assert row[label].worst_margin >= -1e-8

    reciprocal = row["conv_smoothing_reciprocal"]
    if reciprocal_cumulative_integrable(kernel):
        assert reciprocal.status == "pass"
        assert reciprocal.worst_margin >= -1e-8
    else:
        assert reciprocal.status == "skip"


# -- 4: self-convergence under grid refinement --------------------------------


def refinement_gap(solutions):
    coarse, mid, fine = solutions
    d1 = np.max(np.abs(coarse - mid[::2]))
    d2 = np.max(np.abs(mid - fine[::2]))
    return d1 / d2


def test_smooth_kernel_refinement_is_second_order():
    kernel = MemoryKernel.exponential(1.0, 2.0)
    basis = build_basis(Interval(1.0), 8)
    xi = 0.1 / np.arange(1, 9) ** 2
    spec = Nonlinearity.polynomial_power(2.0)

    omegas, coeffs, schemes = [], [], []
    for n_t in (1024, 2048, 4096):
        grid = TimeGrid.uniform(1.0, n_t)
        ctx = build_resolvent(kernel, basis, grid)
        schemes.append(ctx.table.scheme)
        omegas.append(ctx.table.omega)
        sol = picard_solve(
            ctx, spec, HistoryKernel.zero(), xi, PicardOptions(tol=1e-12)
        )
        coeffs.append(sol.coeffs)

    assert schemes == ["trapezoid"] * 3  # ratios compare like with like
    assert refinement_gap(omegas) >= 3.5
    assert refinement_gap(coeffs) >= 3.5


def test_fractional_kernel_refinement_is_at_least_first_order():
    kernel = MemoryKernel.fractional(1.0, 0.5)
    basis = build_basis(Interval(1.0), 32)
    xi = 0.1 / np.arange(1, 33) ** 2
    spec = Nonlinearity.polynomial_power(2.0)

    omegas, coeffs, schemes, masks = [], [], [], []
    for n_t in (256, 512, 1024):
        grid = TimeGrid.uniform(1.0, n_t)
        ctx = build_resolvent(kernel, basis, grid)
        schemes.append(ctx.table.scheme)
        # the kernel singularity sits at t = 0; rate is measured past it
        keep = grid.nodes >= 0.05 - 1e-12
        masks.append(keep)
        omegas.append(ctx.table.omega[keep])
        sol = picard_solve(
            ctx, spec, HistoryKernel.zero(), xi, PicardOptions(tol=1e-12)
        )
        coeffs.append(sol.coeffs[keep])

    assert schemes == ["rectangle"] * 3
    gap_omega = np.max(np.abs(omegas[0] - omegas[1][::2])) / np.max(
        np.abs(omegas[1] - omegas[2][::2])
    )
    gap_mild = np.max(np.abs(coeffs[0] - coeffs[1][::2])) / np.max(
        np.abs(coeffs[1] - coeffs[2][::2])
    )
    assert gap_omega >= 1.8
    assert gap_mild >= 1.8


# -- 5: fixed-point solver against a direct scalar solve ----------------------


def test_single_mode_linear_problem_matches_forward_substitution():
    basis = build_basis(Interval(1.0), 1)
    grid = TimeGrid.uniform(1.0, 4096)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    ctx = build_resolvent(kernel, basis, grid)
    assert ctx.table.scheme == "trapezoid"

    c = 0.3
    xi = np.array([1.0])
    sol = picard_solve(
        ctx,
        Nonlinearity.linear_diagonal(np.array([c])),
        HistoryKernel.zero(),
        xi,
        PicardOptions(tol=1e-12),
    )

    # same discrete Volterra system, solved by forward substitution instead
    # of iteration: u_i (1 - c dt/2) = omega_i xi
    #               + c dt (sum_{0<j<i} omega_{i-j} u_j + omega_i u_0 / 2)
    omega = ctx.table.omega[:, 0]
    dt = grid.dt
    n = omega.size
    u = np.zeros(n)
    u[0] = xi[0]
    for i in range(1, n):
        tail = 0.5 * omega[i] * u[0] + float(np.dot(omega[i - 1 : 0 : -1], u[1:i]))
        u[i] = (omega[i] * xi[0] + c * dt * tail) / (1.0 - 0.5 * c * dt)

    rel = np.max(np.abs(sol.coeffs[:, 0] - u)) / np.max(np.abs(u))
    assert rel <= 1e-6


# -- 6 and 7: contraction evidence and Hölder regularity ----------------------


@lru_cache(maxsize=None)
def small_data_run(n_t):
    basis = build_basis(Interval(1.0), 6)
    grid = TimeGrid.uniform(1.0, n_t)
    ctx = build_resolvent(MemoryKernel.fractional(1.0, 0.5), basis, grid)
    spec = Nonlinearity.sum_of(
        Nonlinearity.polynomial_power(2.0), Nonlinearity.advection_history((0.05,))
    )
    ell = HistoryKernel.exponential(1.0, 1.0)
    xi = np.zeros(6)
    xi[0] = 0.01 / np.pi  # H^1 norm of the datum is 0.01
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12, max_iter=30))
    return ctx, spec, ell, xi, sol


def test_small_data_solve_contracts_and_passes_its_gate():
    sol = small_data_run(128)[-1]
    assert sol.iterations <= 30
    res = np.asarray(sol.residuals)
    ratios = res[1:] / res[:-1]
    # the final sweep can land in roundoff, so it is exempt from the ratio
    assert np.all(ratios[:-1] <= 0.55), ratios


def test_holder_seminorm_is_finite_and_grid_stable():
    _, _, ell, _, sol = small_data_run(128)
    _, _, _, _, sol_fine = small_data_run(256)

    # pin t_min so both sups range over the same window (the default is
    # grid-relative, which would change the domain under refinement)
    coarse = holder_estimate(sol, gamma=0.4, ell=ell, t_min=4.0 / 128.0)
    fine = holder_estimate(sol_fine, gamma=0.4, ell=ell, t_min=4.0 / 128.0)
    assert np.isfinite(coarse.seminorm) and coarse.seminorm > 0.0
    assert abs(fine.seminorm - coarse.seminorm) <= 0.2 * coarse.seminorm


# -- 8: source recovery round trip --------------------------------------------


def test_inverse_round_trip_recovers_the_source_intensity():
    # 32 modes on a length-4 interval keep lambda_max * dt under the
    # stiffness bound, so the second-order scheme carries the round trip
    basis = build_basis(Interval(4.0), 32)
    grid = TimeGrid.uniform(1.0, 1024)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    modes = np.arange(1, 33)
    weights = 1.0 / modes**2
    xi = np.zeros(32)
    p_true = 1.0 + np.sin(2.0 * np.pi * grid.nodes)
    started = time.perf_counter()

    base = dict(basis=basis, grid=grid, kernel=kernel, g=weights,
                kappa=weights, xi=xi)
    _, psi = forward_simulate(
        InverseProblem(psi=np.zeros(grid.nodes.size), **base), p_true
    )

    tol = 1e-6
    scale = np.max(np.abs(p_true))

    rec_fd = reconstruct(InverseProblem(psi=psi, **base), PicardOptions(tol=tol))
    err_fd = np.max(np.abs(rec_fd.p - p_true)) / scale
    assert err_fd <= 0.05, err_fd

    # high-accuracy measurement slope from an 8x refined forward pass
    fine_grid = TimeGrid.uniform(1.0, 8192)
    fine = dict(base, grid=fine_grid)
    _, psi_fine = forward_simulate(
        InverseProblem(psi=np.zeros(fine_grid.nodes.size), **fine),
        1.0 + np.sin(2.0 * np.pi * fine_grid.nodes),
    )
    psi_prime = np.gradient(psi_fine, fine_grid.dt)[::8]

    rec_an = reconstruct(
        InverseProblem(psi=psi, psi_prime=psi_prime, **base), PicardOptions(tol=tol)
    )
    err_an = np.max(np.abs(rec_an.p - p_true)) / scale
    assert err_an <= 0.02, err_an

    assert rec_fd.max_residual <= 10.0 * tol
    assert rec_an.max_residual <= 10.0 * tol
    assert time.perf_counter() - started < 30.0


# -- 9: whole-suite wall time --------------------------------------------------


def test_wall_time_budget_for_the_full_suite(request):
    # conftest reorders this test to the end so it sees everything else
    started = request.config._suite_started
    assert time.perf_counter() - started <= 300.0
