"""Solution-operator family: diagonal action, convolution, verified bounds."""

import numpy as np
import pytest

from rstokes import (
    Interval,
    MemoryKernel,
    TimeGrid,
    apply_sol_op,
    build_basis,
    build_resolvent,
    convolve_sol_op,
    reciprocal_cumulative_integrable,
    verify_sol_op_bounds,
)
from rstokes.volterra import rectangle_convolve, trapezoid_convolve

KERNELS = {
    "zero": MemoryKernel.zero(),
    "constant": MemoryKernel.constant(1.0),
    "fractional": MemoryKernel.fractional(1.0, 0.5),
    "exponential": MemoryKernel.exponential(1.0, 2.0),
}


def small_ctx(kernel, n_modes=6, n_t=128):
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    return build_resolvent(kernel, basis, grid)


def test_apply_sol_op_is_diagonal():
    ctx = small_ctx(KERNELS["exponential"])
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(6)
    full = apply_sol_op(ctx, xi)
    np.testing.assert_allclose(full, ctx.table.omega * xi[None, :])
    np.testing.assert_allclose(apply_sol_op(ctx, xi, 17), full[17])
    np.testing.assert_allclose(apply_sol_op(ctx, xi, 0), xi)
    with pytest.raises(IndexError):
        apply_sol_op(ctx, xi, 999)
    with pytest.raises(ValueError):
        apply_sol_op(ctx, np.ones(5))


def test_convolve_matches_scheme_quadrature():
    # the lag rule must be the same rule that built the table
    rng = np.random.default_rng(1)
    g = None
    for kind in ("exponential", "fractional"):
        ctx = small_ctx(KERNELS[kind], n_modes=4, n_t=64)
        g = rng.standard_normal((65, 4))
        out = convolve_sol_op(ctx, g)
        dt = ctx.grid.dt
        cols = []
        for j in range(4):
            if ctx.table.scheme == "trapezoid":
                ref = trapezoid_convolve(ctx.table.omega[:, j], g[:, j], dt)
            else:
                ref = rectangle_convolve(ctx.table.omega[:, j], g[:, j], dt)
            cols.append(ref)
        np.testing.assert_allclose(out, np.stack(cols, axis=1), atol=1e-12)


def test_convolve_zero_kernel_beats_duhamel_oracle():
    # m = 0, g constant in t on one mode: S*g = (1 - e^{-lam t})/lam
    basis = build_basis(Interval(1.0), 3)
    grid = TimeGrid.uniform(1.0, 1024)
    ctx = build_resolvent(MemoryKernel.zero(), basis, grid)
    g = np.zeros((1025, 3))
    g[:, 0] = 1.0
    out = convolve_sol_op(ctx, g)
    lam = basis.eigenvalues[0]
    exact = (1.0 - np.exp(-lam * grid.nodes)) / lam
    assert np.max(np.abs(out[:, 0] - exact)) < 5e-6
    np.testing.assert_allclose(out[:, 1:], 0.0, atol=1e-14)


@pytest.mark.parametrize("kind", list(KERNELS), ids=list(KERNELS))
def test_bound_report_passes_on_uniform_grids(kind):
    ctx = small_ctx(KERNELS[kind], n_modes=8, n_t=256)
    report = verify_sol_op_bounds(ctx, n_trials=10, seed=3)
    bad = [(r.label, r.worst_margin) for r in report.rows if r.status == "fail"]
    assert not bad, bad
    labels = {r.label: r for r in report.rows}
    assert labels["sol_op_bound"].worst_margin >= -1e-12
    assert labels["conv_smoothing_l2"].status == "pass"
    assert labels["derivative_decay"].status == "pass"
    assert labels["conv_smoothing_singular"].status == "pass"
    # the reciprocal-weight row needs 1/(1*m) integrable at 0, which only the
    # fractional kind provides; the others must skip rather than fake a pass
    expected = "pass" if kind == "fractional" else "skip"
    assert labels["conv_smoothing_reciprocal"].status == expected


def test_reciprocal_integrability_probe():
    assert reciprocal_cumulative_integrable(KERNELS["fractional"], 1.0)
    assert not reciprocal_cumulative_integrable(KERNELS["zero"], 1.0)
    assert not reciprocal_cumulative_integrable(KERNELS["constant"], 1.0)
    assert not reciprocal_cumulative_integrable(KERNELS["exponential"], 1.0)
    # 1/(m0 t) diverges at every scale m0
    for m0 in (1e3, 1e4):
        assert not reciprocal_cumulative_integrable(MemoryKernel.constant(m0), 1.0)
        assert not reciprocal_cumulative_integrable(
            MemoryKernel.exponential(m0, 2.0), 1.0
        )


def test_derivative_decay_skips_on_increasing_tables():
    t = np.linspace(1.0, 16.0, 16) / 16.0
    kernel = MemoryKernel.tabulated(t, 1.0 + t)  # increasing, not in scope
    ctx = small_ctx(kernel, n_modes=4, n_t=64)
    report = verify_sol_op_bounds(ctx, n_trials=4)
    assert report.row("derivative_decay").status == "skip"
    assert "nonincreasing" in report.row("derivative_decay").reason


def test_graded_grid_skips_uniform_lag_rows():
    basis = build_basis(Interval(1.0), 4)
    grid = TimeGrid.graded(1.0, 64, r=2.0)
    ctx = build_resolvent(KERNELS["fractional"], basis, grid)
    report = verify_sol_op_bounds(ctx, n_trials=4)
    assert report.interpolated_lags
    assert report.row("sol_op_bound").status == "pass"
    for label in ("conv_smoothing_singular", "conv_smoothing_reciprocal"):
        assert report.row(label).status == "skip"
    with pytest.raises(KeyError):
        report.row("nonexistent")


def test_verify_argument_validation():
    ctx = small_ctx(KERNELS["zero"], n_modes=3, n_t=32)
    with pytest.raises(ValueError):
        verify_sol_op_bounds(ctx, delta=1.5)
    with pytest.raises(ValueError):
        verify_sol_op_bounds(ctx, n_trials=0)


def test_report_margins_are_reproducible():
    ctx = small_ctx(KERNELS["fractional"], n_modes=4, n_t=64)
    a = verify_sol_op_bounds(ctx, n_trials=5, seed=42)
    b = verify_sol_op_bounds(ctx, n_trials=5, seed=42)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb
