"""Reaction terms, the fixed-point solver, solvability gates, regularity."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import beta as beta_fn

from rstokes import (
    HistoryKernel,
    Interval,
    MemoryKernel,
    MildSolution,
    NonConvergence,
    Nonlinearity,
    PicardOptions,
    Rectangle,
    TimeGrid,
    build_basis,
    build_resolvent,
    hnorm,
    holder_estimate,
    picard_solve,
    select_invariant_radius,
    small_data_gate,
    spectral_gap_gate,
)
from rstokes.nonlinear import OverflowDiagnostic, history_series
from rstokes.spectral import SpectralBasis, project, synthesize

BASIS = build_basis(Interval(1.0), 6)


# -- reaction terms -----------------------------------------------------------


def test_every_kind_vanishes_at_zero():
    specs = [
        Nonlinearity.zero(),
        Nonlinearity.linear_diagonal(np.arange(1.0, 7.0)),
        Nonlinearity.polynomial_power(2.0),
        Nonlinearity.polynomial_power(1.5, signed=False),
        Nonlinearity.advection_history((0.3,)),
    ]
    specs.append(Nonlinearity.sum_of(specs[1], specs[2]))
    Z = np.zeros((3, 6))
    for spec in specs:
        np.testing.assert_allclose(spec.apply_series(Z, Z, BASIS), 0.0, atol=1e-15)


def test_linear_diagonal_acts_mode_by_mode():
    c = np.array([2.0, 0.0, -1.0, 0.5, 0.0, 3.0])
    spec = Nonlinearity.linear_diagonal(c)
    rng = np.random.default_rng(5)
    V = rng.standard_normal((4, 6))
    out = spec.apply_series(V, np.zeros_like(V), BASIS)
    np.testing.assert_allclose(out, V * c[None, :])


def test_square_power_projection_converges_to_the_sine_integral():
    # f = u^2 with u = e_1 on (0,1): the first coefficient is
    # 2 sqrt(2) int_0^1 sin(pi x)^3 dx = 8 sqrt(2) / (3 pi), and the
    # collocation quadrature approaches it at the node-count rate
    exact = 8.0 * np.sqrt(2.0) / (3.0 * np.pi)
    exact3 = -8.0 * np.sqrt(2.0) / (15.0 * np.pi)
    errs = []
    for n in (16, 32):
        basis = build_basis(Interval(1.0), n)
        V = np.zeros((1, n))
        V[0, 0] = 1.0
        out = Nonlinearity.polynomial_power(2.0).apply_series(
            V, np.zeros_like(V), basis
        )
        errs.append(abs(out[0, 0] - exact))
        if n == 32:
            assert out[0, 0] == pytest.approx(exact, abs=1e-6)
            assert out[0, 2] == pytest.approx(exact3, abs=1e-6)
            # even modes vanish by symmetry
            assert abs(out[0, 1]) < 1e-12
            assert abs(out[0, 3]) < 1e-12
    assert errs[1] < errs[0] / 3.0


def test_unsigned_power_differs_on_negative_fields():
    basis = build_basis(Interval(1.0), 4)
    V = np.zeros((1, 4))
    V[0, 0] = -1.0
    signed = Nonlinearity.polynomial_power(2.0).apply_series(V, 0 * V, basis)
    unsigned = Nonlinearity.polynomial_power(2.0, signed=False).apply_series(
        V, 0 * V, basis
    )
    np.testing.assert_allclose(signed, -unsigned, atol=1e-14)


def test_advected_history_projection_converges_to_the_cosine_integral():
    # w = e_1, chi = 1: (w')_1 pairs with e_2 as
    # 2 pi int_0^1 cos(pi x) sin(2 pi x) dx = 8/3
    errs = []
    for n in (32, 64):
        basis = build_basis(Interval(1.0), n)
        W = np.zeros((1, n))
        W[0, 0] = 1.0
        out = Nonlinearity.advection_history((1.0,)).apply_series(
            np.zeros_like(W), W, basis
        )
        errs.append(abs(out[0, 1] - 8.0 / 3.0))
        if n == 64:
            assert out[0, 1] == pytest.approx(8.0 / 3.0, abs=5e-4)
            assert abs(out[0, 0]) < 1e-12  # odd-mode pairing vanishes
    assert errs[1] < errs[0] / 3.0


def test_sum_is_the_sum_of_parts():
    rng = np.random.default_rng(9)
    V = rng.standard_normal((3, 6)) * 0.1
    W = rng.standard_normal((3, 6)) * 0.1
    a = Nonlinearity.linear_diagonal(np.ones(6))
    b = Nonlinearity.advection_history((0.5,))
    s = Nonlinearity.sum_of(a, b)
    np.testing.assert_allclose(
        s.apply_series(V, W, BASIS),
        a.apply_series(V, W, BASIS) + b.apply_series(V, W, BASIS),
        atol=1e-14,
    )
    # globals sum only when every part supplies one
    assert a.state_global is None and s.state_global is None
    assert s.history_global == pytest.approx(0.5)


def test_custom_series_shape_is_checked():
    bad = Nonlinearity.custom_series(lambda V, W, basis: V[:, :2], mu=1.0)
    with pytest.raises(ValueError):
        bad.apply_series(np.zeros((2, 6)), np.zeros((2, 6)), BASIS)


def test_custom_overflow_names_the_mode_and_time_row():
    # the callback's output is coefficients, so the message names the mode
    # (1-based, as in the CSV columns) rather than a collocation node
    basis = build_basis(Interval(1.0), 4)

    def blow_up(V, W, basis):
        out = np.zeros_like(V)
        out[2, 3] = np.inf
        return out

    spec = Nonlinearity.custom_series(blow_up, mu=1.0)
    with pytest.raises(OverflowDiagnostic) as info:
        spec.apply_series(np.zeros((5, 4)), np.zeros((5, 4)), basis)
    message = str(info.value)
    assert "mode 4 of 4 (time row 2)" in message
    assert "node" not in message


def test_parameter_domains():
    with pytest.raises(ValueError):
        Nonlinearity.zero(mu=2.5)
    with pytest.raises(ValueError):
        Nonlinearity.zero(delta=1.0)
    with pytest.raises(ValueError):
        Nonlinearity.polynomial_power(1.0)
    with pytest.raises(ValueError):
        Nonlinearity.zero(mu=1.9, delta=0.5, theta=None)  # theta = -0.4


def test_power_overflow_is_diagnosed():
    basis = build_basis(Interval(1.0), 3)
    V = np.full((1, 3), 1e200)
    with pytest.raises(RuntimeError, match="overflow|finite"):
        Nonlinearity.polynomial_power(3.0).apply_series(V, 0 * V, basis)


def _overflow_from_row(first_bad: int, huge: float):
    # 64 modes on the square: 16,641 nodes, so rows run in blocks of 63 and
    # row 150 sits inside the third block
    basis = build_basis(Rectangle(1.0, 1.0), 64)
    rng = np.random.default_rng(8)
    series = 1e-3 * rng.standard_normal((200, 64))
    series[first_bad:] = huge
    return basis, series


def test_power_overflow_names_the_true_time_row():
    basis, V = _overflow_from_row(150, 1e200)
    spec = Nonlinearity.polynomial_power(3.0)
    with pytest.raises(OverflowDiagnostic, match=r"time row 150\)") as info:
        spec.apply_series(V, np.zeros_like(V), basis)
    assert "pointwise power 3.0" in str(info.value)
    assert "at node (" in str(info.value)


def test_advection_overflow_names_the_true_time_row_and_a_node():
    basis, W = _overflow_from_row(150, 1e308)
    spec = Nonlinearity.advection_history((0.3, 0.2))
    with pytest.raises(OverflowDiagnostic, match=r"time row 150\)") as info:
        spec.apply_series(np.zeros_like(W), W, basis)
    message = str(info.value)
    assert "advected history" in message
    # the named node is one where the synthesized row really is not finite
    node = [float(x) for x in re.search(r"at node \(([^)]*)\)", message)[1].split(",")]
    grads = basis.eval_grad_modes(np.array([node]))
    with np.errstate(over="ignore", invalid="ignore"):
        value = sum(c * (W[150] @ g[0]) for c, g in zip(spec.chi, grads))
    assert not np.isfinite(value)


def three_pass_power(spec, V, basis):
    # the power term as computed before the one-pass rewrite: |s|, **p,
    # copysign and * scale in turn, a node scan of every block, then a
    # weighted copy inside project.  The oracle, bit for bit and message
    # for message
    what = f"pointwise power {spec.power}"
    out = np.empty_like(V)
    for rows in basis._row_blocks(V.shape[0]):
        samples = synthesize(basis, V[rows])
        with np.errstate(over="ignore", invalid="ignore"):
            mapped = np.abs(samples)
            mapped **= spec.power
            if spec.signed:
                np.copysign(mapped, samples, out=mapped)
            mapped *= spec.scale
        bad = np.argwhere(~np.isfinite(mapped))
        if bad.size:
            i, j = bad[0]
            node = tuple(float(c) for c in np.atleast_1d(basis.nodes[j]))
            node = node[0] if basis.nodes.ndim == 1 else node
            raise OverflowDiagnostic(
                f"{what} produced a non-finite sample at node {node} "
                f"(time row {rows.start + i})"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            out[rows] = project(basis, mapped)
    return out


SQUARE = build_basis(Rectangle(1.0, 1.0), 64)  # 16,641 nodes, blocks of 63 rows


@given(
    power=st.sampled_from([1.5, 2.0, 3.0]),
    signed=st.booleans(),
    scale=st.sampled_from([1.0, 0.5, -2.0]),
    rectangle=st.booleans(),
    rows=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_matches_the_three_pass_oracle_bit_for_bit(
    power, signed, scale, rectangle, rows, seed
):
    basis = SQUARE if rectangle else BASIS
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((rows, basis.n_modes)) / np.arange(1, basis.n_modes + 1)
    V[rng.random(V.shape) < 0.2] = 0.0
    spec = Nonlinearity.polynomial_power(power, scale=scale, signed=signed)
    got = spec.apply_series(V, np.zeros_like(V), basis)
    assert got.tobytes() == three_pass_power(spec, V, basis).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
@pytest.mark.parametrize("power, signed", [(2.0, True), (2.0, False), (3.0, True)])
def test_non_finite_samples_raise_the_oracle_s_message(bad, power, signed):
    basis, V = _overflow_from_row(150, 0.0)
    V[150:] = 1e-3
    V[150, 5] = bad
    spec = Nonlinearity.polynomial_power(power, scale=-2.0, signed=signed)
    with pytest.raises(OverflowDiagnostic) as expected:
        three_pass_power(spec, V, basis)
    with pytest.raises(OverflowDiagnostic) as info:
        spec.apply_series(V, np.zeros_like(V), basis)
    assert str(info.value) == str(expected.value)
    assert "time row 150)" in str(info.value)


def test_finite_samples_whose_projection_overflows_are_diagnosed():
    # every sample is finite, but not the weighted ones (node weight 100/14):
    # the old code returned an infinite coefficient here without a word
    basis = build_basis(Interval(100.0), 6)
    V = np.zeros((3, 6))
    V[2, 0] = 7.0  # samples up to 0.99
    spec = Nonlinearity.polynomial_power(2.0, scale=1.5e308)
    assert not np.all(np.isfinite(three_pass_power(spec, V, basis)))
    with pytest.raises(OverflowDiagnostic, match=r"projected to a non-finite "
                       r"coefficient \(time row 2\)"):
        spec.apply_series(V, np.zeros_like(V), basis)


def test_advection_matrix_is_built_once_per_basis(monkeypatch):
    # the node values of chi . grad e_n are made only to build M
    calls = []
    real = SpectralBasis._directional

    def counting(basis, coeffs, direction):
        calls.append(coeffs.shape)
        return real(basis, coeffs, direction)

    monkeypatch.setattr(SpectralBasis, "_directional", counting)
    basis = build_basis(Rectangle(1.0, 1.5), 12)  # 625 nodes: one block
    chi = (0.3, 0.2)
    spec = Nonlinearity.sum_of(
        Nonlinearity.polynomial_power(2.0), Nonlinearity.advection_history(chi)
    )
    ctx = build_resolvent(MemoryKernel.exponential(1.0, 2.0), basis,
                          TimeGrid.uniform(1.0, 64))
    xi = 0.05 * np.eye(12)[0]
    ell = HistoryKernel.exponential(1.0, 1.0)
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert sol.converged and sol.iterations >= 3
    assert calls == [(12, 12)]
    picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert len(calls) == 1
    # the kept matrix is the one the per-sweep build made
    M = project(basis, real(basis, np.eye(12), chi))
    assert basis._advection_matrix(chi).tobytes() == M.tobytes()


# -- history operator ---------------------------------------------------------


def test_history_series_exponential_oracle():
    # ell = e^{-t}, series = 1: (ell * 1)(t) = 1 - e^{-t}, exact moments
    # against a constant interpolant make the rule exact
    grid = TimeGrid.uniform(1.0, 64)
    ell = HistoryKernel.exponential(1.0, 1.0)
    series = np.ones((65, 2))
    out = history_series(ell, series, grid)
    expected = 1.0 - np.exp(-grid.nodes)
    np.testing.assert_allclose(out[:, 0], expected, atol=1e-13)
    np.testing.assert_allclose(out[:, 1], expected, atol=1e-13)
    assert out[0, 0] == 0.0


def test_history_series_linear_data_powerlaw_oracle():
    # ell = t^{-1/2}, series = t: exact value 4/3 t^{3/2} ... scaled by
    # the Beta(1/2) factors; product integration is exact for linear data
    grid = TimeGrid.uniform(1.0, 128)
    ell = HistoryKernel.powerlaw(1.0, -0.5)
    t = grid.nodes
    out = history_series(ell, t[:, None], grid)
    exact = t**1.5 * beta_fn(0.5, 2.0)
    np.testing.assert_allclose(out[:, 0], exact, atol=1e-12)


def test_zero_history_shortcut():
    grid = TimeGrid.uniform(1.0, 16)
    series = np.ones((17, 2))
    out = history_series(HistoryKernel.zero(), series, grid)
    assert not out.any()


# -- fixed-point solver -------------------------------------------------------


def solver_ctx(kernel=None, n_modes=6, n_t=128):
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    return build_resolvent(kernel or MemoryKernel.fractional(1.0, 0.5), basis, grid)


def test_zero_reaction_reproduces_the_homogeneous_solution():
    ctx = solver_ctx()
    xi = np.array([1.0, -0.5, 0.25, 0.0, 0.0, 0.1])
    sol = picard_solve(ctx, Nonlinearity.zero(), HistoryKernel.zero(), xi)
    assert sol.converged
    assert sol.iterations == 1
    np.testing.assert_allclose(sol.coeffs, ctx.table.omega * xi[None, :], atol=1e-14)


def test_single_mode_linear_reaction_matches_scalar_resolvent():
    # f(u) = c u on one mode folds into the scalar equation with lam - c
    ctx = solver_ctx(MemoryKernel.zero(), n_modes=1, n_t=2048)
    lam = ctx.basis.eigenvalues[0]
    c = 2.0
    spec = Nonlinearity.linear_diagonal(np.array([c]))
    sol = picard_solve(
        ctx, spec, HistoryKernel.zero(), np.array([1.0]), PicardOptions(tol=1e-12)
    )
    exact = np.exp(-(lam - c) * ctx.grid.nodes)
    assert np.max(np.abs(sol.coeffs[:, 0] - exact)) < 5e-5


def test_damping_weight_changes_metric_not_fixed_point():
    ctx = solver_ctx(n_t=64)
    xi = 0.01 * np.ones(6)
    spec = Nonlinearity.polynomial_power(2.0)
    ell = HistoryKernel.zero()
    plain = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    damped = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12, beta=4.0))
    assert plain.converged and damped.converged
    np.testing.assert_allclose(plain.coeffs, damped.coeffs, atol=1e-10)
    assert damped.beta == 4.0


def test_forcing_enters_the_duhamel_term():
    # zero reaction + constant forcing on mode 1 has the closed-form response
    ctx = solver_ctx(MemoryKernel.zero(), n_modes=3, n_t=1024)
    lam = ctx.basis.eigenvalues[0]
    forcing = np.zeros((1025, 3))
    forcing[:, 0] = 1.0
    sol = picard_solve(
        ctx,
        Nonlinearity.zero(),
        HistoryKernel.zero(),
        np.zeros(3),
        PicardOptions(forcing=forcing),
    )
    exact = (1.0 - np.exp(-lam * ctx.grid.nodes)) / lam
    assert np.max(np.abs(sol.coeffs[:, 0] - exact)) < 5e-6


def test_nonconvergence_carries_the_residual_history():
    ctx = solver_ctx(n_t=32)
    spec = Nonlinearity.polynomial_power(2.0, scale=50.0)
    with pytest.raises(NonConvergence) as info:
        picard_solve(
            ctx,
            spec,
            HistoryKernel.zero(),
            np.ones(6),
            PicardOptions(tol=1e-14, max_iter=3),
        )
    assert len(info.value.residuals) == 3


def test_solution_stays_inside_the_selected_ball():
    ctx = solver_ctx(n_t=128)
    spec = Nonlinearity.polynomial_power(2.0, mu=1.0, delta=0.5)
    ell = HistoryKernel.zero()
    xi = np.zeros(6)
    xi[0] = 0.01
    xi_norm = float(hnorm(xi, ctx.basis, 1.0))
    rho = select_invariant_radius(spec, ctx.basis, xi_norm, 0.0, 1.0)
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert sol.converged
    assert float(np.max(hnorm(sol.coeffs, ctx.basis, 1.0))) <= rho + 1e-12


def test_residual_contraction_on_small_data():
    ctx = solver_ctx(n_t=128)
    spec = Nonlinearity.sum_of(
        Nonlinearity.polynomial_power(2.0), Nonlinearity.advection_history((0.05,))
    )
    ell = HistoryKernel.exponential(1.0, 1.0)
    xi = np.zeros(6)
    xi[0] = 0.01 / np.pi  # H^1 norm 0.01
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert sol.converged
    res = np.asarray(sol.residuals)
    ratios = res[1:] / res[:-1]
    assert np.all(ratios[:-1] < 0.55)  # the last ratio can dip into roundoff


# -- solvability gates --------------------------------------------------------


def test_small_data_gate_hand_value():
    gate = small_data_gate(0.1, 0.1, 1.0, 1.0, 0.5)
    assert gate.name == "small_data_gate"
    assert abs(gate.value - 0.32) <= 1e-15
    assert gate.threshold == 1.0
    assert gate.passed
    assert not small_data_gate(0.5, 0.0, 0.0, 1.0, 0.5).passed  # 8*0.25 = 2
    with pytest.raises(ValueError):
        small_data_gate(0.1, 0.1, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        small_data_gate(0.1, 0.1, 1.0, 1.0, 0.0)


def test_spectral_gap_gate_hand_value():
    lam1 = float(BASIS.eigenvalues[0])
    gate = spectral_gap_gate(1.0, 0.0, 0.7, lam1)
    assert gate.name == "spectral_gap_gate"
    assert gate.value == 4.0
    assert gate.threshold == lam1
    assert gate.passed  # 4 < pi^2
    assert not spectral_gap_gate(2.0, 0.0, 0.0, lam1).passed  # 16 > pi^2
    with pytest.raises(ValueError):
        spectral_gap_gate(1.0, 0.0, 0.0, 0.0)


def test_gate_decision_prints_its_comparison():
    text = str(small_data_gate(0.1, 0.1, 1.0, 1.0, 0.5))
    assert "small_data_gate" in text
    assert "0.32" in text


def test_invariant_radius_scan():
    spec = Nonlinearity.linear_diagonal(0.01 * np.ones(6))
    rho = select_invariant_radius(spec, BASIS, 0.5, 0.0, 1.0)
    assert rho == 1.0  # the very first candidate 2|xi| already passes
    blowup = Nonlinearity.polynomial_power(2.0, scale=1e6)
    with pytest.raises(ValueError, match="invariant radius"):
        select_invariant_radius(blowup, BASIS, 10.0, 0.0, 1.0)


# -- weighted Holder seminorm ---------------------------------------------


def manufactured_solution(coeff_of_t, n_t=256, n_modes=1, mu=0.0):
    grid = TimeGrid.uniform(1.0, n_t)
    basis = build_basis(Interval(1.0), n_modes)
    coeffs = np.zeros((n_t + 1, n_modes))
    coeffs[:, 0] = coeff_of_t(grid.nodes)
    return MildSolution(grid, basis, coeffs, 1, (0.0,), mu, 0.0, True)


def test_holder_seminorm_of_a_linear_ramp():
    # u_1(t) = t in the flat norm: (t/h)^gamma * h peaks at t = h = T/2
    sol = manufactured_solution(lambda t: t)
    report = holder_estimate(sol, gamma=0.4)
    assert report.seminorm == pytest.approx(0.5, rel=1e-12)
    assert report.t_at == pytest.approx(0.5)
    assert report.h_at == pytest.approx(0.5)
    assert report.t_min == pytest.approx(4.0 / 256.0)


def test_holder_weights_constant_history_kernel_exactly():
    sol = manufactured_solution(lambda t: t)
    ell = HistoryKernel.constant(1.0)
    report = holder_estimate(sol, gamma=0.4, ell=ell)
    # increments of 1*|ell| reproduce the ramp's sup; the singular-weight
    # moment t^g int_0^t (t-s)^{-g} ds = t/(1-g) peaks at the horizon
    assert report.ell_star1 == pytest.approx(0.5, rel=1e-12)
    assert report.ell_star2 == pytest.approx(1.0 / 0.6, rel=1e-10)


def test_holder_on_a_grid_shorter_than_t_min():
    # N_t = 2 puts the default t_min = 4 dt past the horizon: both sups run
    # over no node and read 0 (the history one used to raise ValueError)
    sol = manufactured_solution(lambda t: t, n_t=2)
    report = holder_estimate(sol, gamma=0.4, ell=HistoryKernel.exponential(1.0, 1.0))
    assert report.seminorm == 0.0 and np.isnan(report.t_at)
    assert report.ell_star2 == 0.0


def test_holder_gate_value_formula():
    sol = manufactured_solution(lambda t: t)
    report = holder_estimate(
        sol, gamma=0.4, ell=HistoryKernel.zero(), state_global=0.05,
        history_global=0.0, delta=0.5,
    )
    expected = 16.0 * beta_fn(0.5, 0.2) * 0.05**2
    assert report.gate_value == pytest.approx(expected, rel=1e-12)
    assert report.gate_passed
    assert report.gamma_in_range


def test_holder_warns_outside_the_admissible_band():
    sol = manufactured_solution(lambda t: t)
    with pytest.warns(UserWarning, match="outside"):
        report = holder_estimate(sol, gamma=0.45, delta=0.95)
    assert not report.gamma_in_range
    # gamma >= 1/2 with gate data: the singular moment diverges
    with pytest.warns(UserWarning, match="outside"):
        report2 = holder_estimate(
            sol, gamma=0.6, state_global=0.1, history_global=0.0, delta=0.5,
        )
    assert report2.gate_value == np.inf
    assert not report2.gate_passed


def test_holder_requires_uniform_grid_and_valid_gamma():
    sol = manufactured_solution(lambda t: t)
    with pytest.raises(ValueError):
        holder_estimate(sol, gamma=0.0)
    graded = TimeGrid.graded(1.0, 16, r=2.0)
    coeffs = np.zeros((17, 1))
    bad = MildSolution(
        graded, build_basis(Interval(1.0), 1), coeffs, 1, (0.0,), 0.0, 0.0, True
    )
    with pytest.raises(ValueError):
        holder_estimate(bad, gamma=0.4)
