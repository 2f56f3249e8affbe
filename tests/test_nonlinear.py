"""Reaction terms, the fixed-point solver, time regularity."""

import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

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
)
from rstokes import inverse, nonlinear, spectral
from rstokes.nonlinear import OverflowDiagnostic, history_series
from rstokes.resolvent import convolve_sol_op
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


def test_linear_diagonal_overflow_names_the_mode_and_time_row():
    # an overflowing product is a diagnostic, not a numpy warning
    basis = build_basis(Interval(1.0), 4)
    V = np.zeros((5, 4))
    V[3, 1] = 1e10
    spec = Nonlinearity.linear_diagonal(np.full(4, 1e300))
    with pytest.raises(OverflowDiagnostic) as info:
        spec.apply_series(V, np.zeros_like(V), basis)
    message = str(info.value)
    assert message.startswith("linear diagonal reaction")
    assert "mode 2 of 4 (time row 3)" in message


def test_parameter_domains():
    with pytest.raises(ValueError):
        Nonlinearity.zero(mu=2.5)
    with pytest.raises(ValueError):
        Nonlinearity.zero(delta=1.0)
    with pytest.raises(ValueError):
        Nonlinearity.polynomial_power(1.0)
    with pytest.raises(ValueError, match="1 \\+ delta"):
        Nonlinearity.zero(mu=1.5, delta=0.5)  # 1 + delta - mu = 0
    Nonlinearity.zero(mu=1.4, delta=0.5)
    with pytest.raises(TypeError):
        Nonlinearity.zero(theta=0.5)  # no such parameter


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
    for rows in spectral._row_slices(V.shape[0], basis.nodes.shape[0],
                                     spectral._SAMPLE_BUDGET):
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
    assert sol.iterations >= 3
    assert calls == [(12, 12)]
    picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert len(calls) == 1
    # the kept matrix is the one the per-sweep build made
    M = project(basis, real(basis, np.eye(12), chi))
    assert basis._advection_matrix(chi).tobytes() == M.tobytes()


RECTANGLE = build_basis(Rectangle(1.0, 1.5), 5)
SIMPLE_KINDS = ["zero", "linear_diagonal", "power", "advection", "custom"]


def _reaction(kind, basis, rng):
    n = basis.n_modes
    if kind == "zero":
        return Nonlinearity.zero()
    if kind == "linear_diagonal":
        return Nonlinearity.linear_diagonal(rng.standard_normal(n))
    if kind == "power":
        return Nonlinearity.polynomial_power(rng.choice([1.5, 2.0, 3.0]),
                                             signed=bool(rng.integers(2)))
    if kind == "advection":
        return Nonlinearity.advection_history(rng.standard_normal(basis.domain.ndim))
    return Nonlinearity.custom_series(lambda V, W, basis: V * W + W)


@given(
    kind=st.sampled_from(SIMPLE_KINDS + ["sum"]),
    parts=st.lists(st.sampled_from(SIMPLE_KINDS), min_size=1, max_size=3),
    rectangle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reads_history_says_whether_w_changes_f(kind, parts, rectangle, seed):
    # a reaction that does not read w gives the bits of w = 0; one that
    # reads it (advection, custom, a sum with such a part) does not
    basis = RECTANGLE if rectangle else BASIS
    rng = np.random.default_rng(seed)
    if kind == "sum":
        spec = Nonlinearity.sum_of(*(_reaction(p, basis, rng) for p in parts))
        reads = any(p in ("advection", "custom") for p in parts)
    else:
        spec = _reaction(kind, basis, rng)
        reads = kind in ("advection", "custom")
    assert spec.reads_history == reads
    V = 0.1 * rng.standard_normal((7, basis.n_modes))
    W = rng.standard_normal((7, basis.n_modes))
    with_w = spec.apply_series(V, W, basis)
    without = spec.apply_series(V, np.zeros_like(W), basis)
    assert (with_w.tobytes() == without.tobytes()) == (not reads)


def _count_history_series(monkeypatch):
    calls = []
    real = nonlinear.history_series

    def counting(ell, series, grid):
        calls.append(ell.kind)
        return real(ell, series, grid)

    monkeypatch.setattr(nonlinear, "history_series", counting)
    return calls


def test_a_power_solve_never_convolves_the_history(monkeypatch):
    calls = _count_history_series(monkeypatch)
    ctx = solver_ctx(n_t=256)
    xi = np.zeros(6)
    xi[0] = 0.3
    spec = Nonlinearity.polynomial_power(2.0, scale=0.5)
    ell = HistoryKernel.exponential(1.0, 1.0)
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert sol.iterations >= 3
    assert calls == []
    plain = picard_solve(ctx, spec, HistoryKernel.zero(), xi, PicardOptions(tol=1e-12))
    assert sol.coeffs.tobytes() == plain.coeffs.tobytes()
    assert sol.residuals == plain.residuals


@pytest.mark.parametrize("with_power", [False, True])
def test_a_reaction_that_reads_the_history_convolves_it(monkeypatch, with_power):
    # one history_series call a sweep, each building its lag weights: 0.06 ms
    # at 1024 steps, 0.18 ms at 8192 and 1.8 ms at 65536, against 2.5 ms,
    # 29 ms and 430 ms for the 64-column convolution they feed
    calls = _count_history_series(monkeypatch)
    ctx = solver_ctx(n_t=256)
    xi = np.zeros(6)
    xi[0] = 0.3
    spec = Nonlinearity.advection_history((0.5,))
    if with_power:
        spec = Nonlinearity.sum_of(Nonlinearity.polynomial_power(2.0), spec)
    ell = HistoryKernel.exponential(1.0, 1.0)
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    assert calls == ["exponential"] * sol.iterations
    plain = picard_solve(ctx, spec, HistoryKernel.zero(), xi, PicardOptions(tol=1e-12))
    assert not np.array_equal(sol.coeffs, plain.coeffs)


def test_solves_run_through_the_public_layer_functions(monkeypatch):
    # the benchmark tracer times project, hnorm and history_series under the
    # names the solver modules bind them to; work done by a private twin
    # would read 0 there
    counts = {}
    for real in (spectral.project, spectral.hnorm, nonlinear.history_series):

        def counting(*args, _real=real):
            counts[_real.__name__] = counts.get(_real.__name__, 0) + 1
            return _real(*args)

        for module in (nonlinear, inverse):
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, counting)
    names = {"project", "hnorm", "history_series"}

    ctx = solver_ctx(n_t=64)
    spec = Nonlinearity.sum_of(
        Nonlinearity.polynomial_power(2.0), Nonlinearity.advection_history((0.3,))
    )
    xi = np.zeros(6)
    xi[0] = 0.1
    sol = picard_solve(ctx, spec, HistoryKernel.exponential(1.0, 1.0), xi,
                       PicardOptions(tol=1e-12))
    assert set(counts) == names
    assert counts["history_series"] == sol.iterations

    basis, grid = ctx.basis, ctx.grid
    g = np.zeros(6)
    g[0] = 1.0
    problem = inverse.InverseProblem(
        basis=basis, grid=grid, kernel=MemoryKernel.exponential(1.0, 2.0), g=g,
        kappa=g, xi=np.zeros(6), f1=Nonlinearity.polynomial_power(2.0, scale=0.1),
    )
    _, psi = inverse.forward_simulate(problem, np.sin(np.pi * grid.nodes))
    counts.clear()
    rec = inverse.reconstruct(replace(problem, psi=psi))
    assert set(counts) == names


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
    np.testing.assert_allclose(plain.coeffs, damped.coeffs, atol=1e-10)


def test_forcing_enters_the_duhamel_term():
    # zero reaction + constant source on mode 1 has the closed-form response
    basis = build_basis(Interval(1.0), 3)
    grid = TimeGrid.uniform(1.0, 1024)
    e1 = np.array([1.0, 0.0, 0.0])
    problem = inverse.InverseProblem(
        basis=basis, grid=grid, kernel=MemoryKernel.zero(), g=e1, kappa=e1,
        xi=np.zeros(3),
    )
    sol, _ = inverse.forward_simulate(problem, np.ones(1025))
    lam = basis.eigenvalues[0]
    exact = (1.0 - np.exp(-lam * grid.nodes)) / lam
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


def test_residual_contraction_on_small_data():
    ctx = solver_ctx(n_t=128)
    spec = Nonlinearity.sum_of(
        Nonlinearity.polynomial_power(2.0), Nonlinearity.advection_history((0.05,))
    )
    ell = HistoryKernel.exponential(1.0, 1.0)
    xi = np.zeros(6)
    xi[0] = 0.01 / np.pi  # H^1 norm 0.01
    sol = picard_solve(ctx, spec, ell, xi, PicardOptions(tol=1e-12))
    res = np.asarray(sol.residuals)
    ratios = res[1:] / res[:-1]
    assert np.all(ratios[:-1] < 0.55)  # the last ratio can dip into roundoff


def head_table_picard(ctx, spec, ell, xi, opts, forcing=None):
    # the sweep loop as it was before row blocks: a head table omega * xi
    # added into every S*f, and hnorm of the whole difference table, with a
    # forcing series added out of place to f, as the solver once took it.
    # The oracle, bit for bit and message for message; returns (u, residuals)
    basis = ctx.basis
    damp = np.exp(-opts.beta * ctx.grid.nodes)
    head = ctx.table.omega * xi[None, :]
    if spec.reads_history and ell.kind != "zero":
        history = lambda series: history_series(ell, series, ctx.grid)
    else:
        zeros = np.broadcast_to(0.0, head.shape)
        history = lambda series: zeros
    u = head
    residuals = []
    for _ in range(opts.max_iter):
        w = history(u)
        try:
            f_rows = spec.apply_series(u, w, basis)
        except OverflowDiagnostic as exc:
            raise NonConvergence(
                f"iteration diverged at sweep {len(residuals) + 1}: {exc}",
                tuple(residuals),
            ) from exc
        if forcing is not None:
            f_rows = f_rows + forcing
        u_new = convolve_sol_op(ctx, f_rows)
        u_new += head
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.max(damp * hnorm(u_new - u, basis, spec.mu)))
        residuals.append(res)
        if not math.isfinite(res):
            raise NonConvergence(f"iteration diverged at sweep {len(residuals)}: "
                                 f"the residual is {res}", tuple(residuals))
        u = u_new
        if res < opts.tol:
            return u, tuple(residuals)
    raise NonConvergence(
        f"no fixed point after {opts.max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        tuple(residuals),
    )


def _outcome(solve):
    """(coefficient bytes, residuals) of a solve, or its NonConvergence's
    (message, residuals)."""
    try:
        coeffs, residuals = solve()
    except NonConvergence as exc:
        return str(exc), exc.residuals
    return coeffs.tobytes(), residuals


def _assert_sweeps_match_the_oracle(ctx, spec, ell, xi, opts, forcing=None):
    # the solver takes a forcing series as part of a custom reaction
    solved = spec if forcing is None else Nonlinearity.custom_series(
        lambda V, W, basis: spec.apply_series(V, W, basis) + forcing,
        mu=spec.mu, delta=spec.delta,
    )

    def row_blocks():
        sol = picard_solve(ctx, solved, ell, xi, opts)
        return sol.coeffs, sol.residuals

    expected = _outcome(lambda: head_table_picard(ctx, spec, ell, xi, opts, forcing))
    assert _outcome(row_blocks) == expected
    return expected


@given(
    kind=st.sampled_from(["power", "advection", "sum", "custom"]),
    rectangle=st.booleans(),
    kernel=st.sampled_from(["fractional", "exponential"]),
    history=st.sampled_from(["zero", "exponential"]),
    beta=st.sampled_from([0.0, 3.0]),
    forced=st.booleans(),
    # the default budget, one row a block, and ragged blocks of a few rows
    block=st.sampled_from([spectral._BLOCK, 1, 17]),
    n_t=st.integers(8, 96),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweeps_keep_the_bits_of_the_head_table_loop(
    kind, rectangle, kernel, history, beta, forced, block, n_t, seed
):
    basis = RECTANGLE if rectangle else BASIS
    rng = np.random.default_rng(seed)
    if kind == "sum":
        spec = Nonlinearity.sum_of(
            _reaction("power", basis, rng), _reaction("advection", basis, rng)
        )
    else:
        spec = _reaction(kind, basis, rng)
    memory = (MemoryKernel.fractional(1.0, 0.5) if kernel == "fractional"
              else MemoryKernel.exponential(1.0, 2.0))
    ctx = build_resolvent(memory, basis, TimeGrid.uniform(1.0, n_t))
    ell = (HistoryKernel.zero() if history == "zero"
           else HistoryKernel.exponential(1.0, 1.0))
    xi = 0.1 * rng.standard_normal(basis.n_modes)
    forcing = 0.1 * rng.standard_normal((n_t + 1, basis.n_modes)) if forced else None
    opts = PicardOptions(tol=1e-12, max_iter=8, beta=beta)
    with mock.patch.object(spectral, "_BLOCK", block):
        _assert_sweeps_match_the_oracle(ctx, spec, ell, xi, opts, forcing)


@pytest.mark.parametrize(
    "spec, xi, where",
    [
        # sweep 5 overflows in the power term, or in the residual's norm
        (Nonlinearity.polynomial_power(3.0, scale=1e3), 5.0, "pointwise power"),
        (Nonlinearity.polynomial_power(3.0, scale=50.0), 5.0, "the residual is inf"),
    ],
    ids=["overflow", "residual"],
)
def test_a_diverging_sweep_stops_where_the_head_table_loop_stops(spec, xi, where):
    ctx = solver_ctx(n_t=256)
    message, residuals = _assert_sweeps_match_the_oracle(
        ctx, spec, HistoryKernel.exponential(1.0, 1.0), np.full(6, xi), PicardOptions()
    )
    assert message.startswith("iteration diverged at sweep 5: ") and where in message
    assert len(residuals) >= 4


def test_a_nan_row_norm_in_the_last_block_ends_the_solve(monkeypatch):
    # the sup runs over the whole row vector, so a NaN in any row ends the
    # solve (a max over block maxima could drop it: max(0.0, nan) is 0.0)
    real = nonlinear.hnorm

    def nan_at_the_end(*args):
        norms = real(*args)
        norms[-1] = np.nan
        return norms

    monkeypatch.setattr(nonlinear, "hnorm", nan_at_the_end)
    with pytest.raises(NonConvergence, match="sweep 1: the residual is nan"):
        picard_solve(solver_ctx(n_t=32), Nonlinearity.zero(), HistoryKernel.zero(),
                     np.ones(6))


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_four_tables_not_eight():
    # 64 x 4096, the interval solve's reaction and history: omega, u, f and
    # S*f (and the trapezoid rule's end correction) are the only tables; the
    # head table loop peaked at 6 tables over omega
    ctx = solver_ctx(n_modes=64, n_t=4096)
    xi = np.zeros(64)
    xi[0] = 1.0 / np.pi
    spec = Nonlinearity.polynomial_power(2.0, scale=0.5)
    sol, peak = _traced_peak(
        lambda: picard_solve(ctx, spec, HistoryKernel.exponential(1.0, 1.0), xi)
    )
    assert peak <= 4.5 * sol.coeffs.nbytes


def test_holder_increments_hold_a_block_not_a_table():
    # the dyadic increments are normed a row block at a time; the whole
    # difference table and hnorm's temporaries peaked at 2 tables
    coeffs = np.random.default_rng(3).standard_normal((4097, 64))
    grid = TimeGrid.uniform(1.0, 4096)
    sol = MildSolution(grid, build_basis(Interval(1.0), 64), coeffs, 1, (0.0,), 1.0)
    report, peak = _traced_peak(
        lambda: holder_estimate(sol, 0.4, ell=HistoryKernel.exponential(1.0, 1.0))
    )
    assert report.seminorm > 0.0
    assert peak <= 0.5 * coeffs.nbytes


# -- weighted Holder seminorm ---------------------------------------------


def manufactured_solution(coeff_of_t, n_t=256, n_modes=1, mu=0.0):
    grid = TimeGrid.uniform(1.0, n_t)
    basis = build_basis(Interval(1.0), n_modes)
    coeffs = np.zeros((n_t + 1, n_modes))
    coeffs[:, 0] = coeff_of_t(grid.nodes)
    return MildSolution(grid, basis, coeffs, 1, (0.0,), mu)


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


def test_holder_warns_outside_the_admissible_band():
    sol = manufactured_solution(lambda t: t)
    with pytest.warns(UserWarning, match="outside"):
        report = holder_estimate(sol, gamma=0.45, delta=0.95)
    assert not report.gamma_in_range
    assert holder_estimate(sol, gamma=0.4, delta=0.5).gamma_in_range


def test_holder_requires_uniform_grid_and_valid_gamma():
    sol = manufactured_solution(lambda t: t)
    with pytest.raises(ValueError):
        holder_estimate(sol, gamma=0.0)
    # dyadic increments need a uniform grid, and no other grid can be built
    with pytest.raises(ValueError, match="uniform"):
        TimeGrid((np.arange(17) / 16.0) ** 2)
