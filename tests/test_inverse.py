"""Source recovery: elimination formula, gates, and round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rstokes import inverse, nonlinear, resolvent
from rstokes import (
    HistoryKernel,
    Interval,
    InverseProblem,
    KernelGateFailed,
    MemoryKernel,
    NonConvergence,
    Nonlinearity,
    PairingTooSmall,
    PicardOptions,
    TimeGrid,
    build_basis,
    build_resolvent,
    convolve_sol_op,
    derivative_psi,
    forward_simulate,
    identification_decision,
    picard_solve,
    reconstruct,
)
from rstokes.volterra import scheme_decision


def make_problem(n_modes=4, n_t=256, kernel=None, psi=None, **kw):
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    g = np.zeros(n_modes)
    g[0] = 1.0
    kappa = np.zeros(n_modes)
    kappa[0] = 1.0
    defaults = dict(
        basis=basis,
        grid=grid,
        kernel=kernel or MemoryKernel.exponential(1.0, 2.0),
        g=g,
        kappa=kappa,
        xi=np.zeros(n_modes),
        psi=psi,
    )
    defaults.update(kw)
    return InverseProblem(**defaults)


# -- measurement derivative ---------------------------------------------------


def test_derivative_psi_exact_for_polynomials():
    grid = TimeGrid.uniform(1.0, 64)
    const = derivative_psi(np.full(65, 3.0), grid)
    np.testing.assert_allclose(const, 0.0, atol=1e-13)
    # second-order differences are exact on quadratics
    quad_series = grid.nodes**2
    np.testing.assert_allclose(
        derivative_psi(quad_series, grid), 2.0 * grid.nodes, atol=1e-11
    )


def test_derivative_psi_accuracy_on_sine():
    grid = TimeGrid.uniform(1.0, 1024)
    psi = np.sin(2.0 * np.pi * grid.nodes)
    out = derivative_psi(psi, grid)
    exact = 2.0 * np.pi * np.cos(2.0 * np.pi * grid.nodes)
    assert np.max(np.abs(out - exact)) < 1e-3
    assert np.max(np.abs(out - exact)[5:-5]) < 5e-5


def test_derivative_psi_passthrough_and_validation():
    # a supplied psi' reaches the elimination as it is; only psi is differenced
    supplied = np.arange(9.0)
    rec = reconstruct(make_problem(n_modes=1, n_t=8, psi_prime=supplied))
    np.testing.assert_array_equal(rec.psi_prime, supplied)
    with pytest.raises(ValueError):
        derivative_psi(np.zeros(5), TimeGrid.uniform(1.0, 8))


# -- forward map --------------------------------------------------------------


def test_forward_oracle_single_mode_no_memory():
    # m = 0, p = 1, g = kappa = e_1: psi = (1 - e^{-lam t}) / lam
    problem = make_problem(n_t=1024, kernel=MemoryKernel.zero())
    p = np.ones(1025)
    _, psi = forward_simulate(problem, p)
    lam = problem.basis.eigenvalues[0]
    exact = (1.0 - np.exp(-lam * problem.grid.nodes)) / lam
    assert np.max(np.abs(psi - exact)) < 5e-6


def test_forward_zero_source_is_silent():
    problem = make_problem()
    sol, psi = forward_simulate(problem, np.zeros(257))
    np.testing.assert_allclose(psi, 0.0, atol=1e-15)
    np.testing.assert_allclose(sol.coeffs, 0.0, atol=1e-15)


def test_forward_validates_series_length():
    problem = make_problem()
    with pytest.raises(ValueError):
        forward_simulate(problem, np.ones(10))


# -- the rule of the identification solves ------------------------------------


def padded_problem(**kw):
    # only g's first mode carries data, and only modes 2 and 3 are stiff at
    # 32 steps: the joint rule over every mode is the rectangle rule
    problem = make_problem(n_modes=3, n_t=32, **kw)
    joint = scheme_decision(
        problem.kernel.a_moments, problem.grid, problem.basis.eigenvalues
    )["scheme"]
    assert joint == "rectangle"
    return problem


def test_identification_scheme_judges_the_active_modes_of_a_linear_problem():
    assert identification_decision(padded_problem())["scheme"] == "trapezoid"


def test_identification_scheme_judges_every_mode_otherwise():
    # a reaction may couple modes, and with no data no mode is singled out
    f1 = Nonlinearity.polynomial_power(2.0, scale=0.5)
    assert identification_decision(padded_problem(f1=f1))["scheme"] == "rectangle"
    assert identification_decision(padded_problem(g=np.zeros(3)))["scheme"] == "rectangle"


def test_forward_simulate_solves_on_the_identification_rule():
    # the bits of a Picard solve on a resolvent of that rule, which the
    # joint rule's rectangle table would not give
    problem = padded_problem()
    p = 1.0 + problem.grid.nodes
    sol, psi = forward_simulate(problem, p)

    source = p[:, None] * problem.g[None, :]
    f1 = problem.f1
    spec = Nonlinearity.custom_series(
        lambda V, W, basis: f1.apply_series(V, W, basis) + source,
        mu=f1.mu, delta=f1.delta,
    )
    scheme = identification_decision(problem)["scheme"]
    ctx = build_resolvent(problem.kernel, problem.basis, problem.grid, scheme)
    assert ctx.table.scheme == "trapezoid"
    oracle = picard_solve(ctx, spec, HistoryKernel.zero(), problem.xi)
    np.testing.assert_array_equal(sol.coeffs, oracle.coeffs)
    np.testing.assert_array_equal(psi, oracle.coeffs @ problem.kappa)


# -- reconstruction gates -----------------------------------------------------


def test_orthogonal_weight_is_rejected():
    kappa = np.zeros(4)
    kappa[1] = 1.0  # g excites mode 1 only, kappa watches mode 2
    problem = make_problem(kappa=kappa, psi=np.zeros(257))
    with pytest.raises(PairingTooSmall):
        reconstruct(problem)


def test_fractional_kernel_fails_the_derivative_gate():
    # at every scale: |m'| ~ t^(-alpha-1) near 0 however small m0 is
    for m0 in (1.0, 1e-12):
        problem = make_problem(
            kernel=MemoryKernel.fractional(m0, 0.5), psi=np.zeros(257)
        )
        with pytest.raises(KernelGateFailed, match="integrability"):
            reconstruct(problem)


def test_initial_consistency_is_enforced():
    problem = make_problem(psi=np.ones(257))  # psi(0) = 1 but (xi, kappa) = 0
    with pytest.raises(ValueError, match="disagrees"):
        reconstruct(problem)


def test_needs_some_measurement():
    problem = make_problem()
    with pytest.raises(ValueError, match="psi"):
        reconstruct(problem)


# -- round trips ----------------------------------------------------------


def test_zero_measurement_recovers_zero_source():
    problem = make_problem(psi=np.zeros(257))
    rec = reconstruct(problem)
    np.testing.assert_allclose(rec.p, 0.0, atol=1e-12)
    np.testing.assert_allclose(rec.measurement_residual, 0.0, atol=1e-12)


def test_single_mode_round_trip():
    problem = make_problem(n_modes=1, n_t=512)
    t = problem.grid.nodes
    p_true = 1.0 + 0.5 * np.sin(2.0 * np.pi * t)
    _, psi = forward_simulate(problem, p_true, PicardOptions(tol=1e-12))
    rec = reconstruct(make_problem(n_modes=1, n_t=512, psi=psi))
    err = np.max(np.abs(rec.p - p_true)) / np.max(np.abs(p_true))
    assert err < 1e-3
    # the residual floor is the O(h^2) time-stepping error, not solver tol
    assert rec.max_residual < 5e-5
    assert rec.pairing == pytest.approx(1.0)


def test_reconstruction_is_linear_in_the_measurement():
    # with f1 = 0 the map psi -> p is linear: scaling psi scales p
    problem = make_problem(n_modes=2, n_t=256)
    t = problem.grid.nodes
    _, psi = forward_simulate(problem, 1.0 - np.exp(-3.0 * t))
    tight = PicardOptions(tol=1e-12)
    rec1 = reconstruct(make_problem(n_modes=2, n_t=256, psi=psi), tight)
    rec3 = reconstruct(make_problem(n_modes=2, n_t=256, psi=3.0 * psi), tight)
    np.testing.assert_allclose(rec3.p, 3.0 * rec1.p, atol=1e-9)


def test_multimode_round_trip_with_reaction_term():
    # smooth decaying mode weights keep the eliminated map contractive; a
    # linear reaction rides along and its pairing must cancel in p
    n_modes, n_t = 8, 1024
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    n = np.arange(1, n_modes + 1)
    f1 = Nonlinearity.linear_diagonal(0.2 * np.ones(n_modes))
    base = dict(
        basis=basis,
        grid=grid,
        kernel=MemoryKernel.exponential(1.0, 2.0),
        g=1.0 / n**2,
        kappa=1.0 / n**2,
        xi=0.05 / n**3,
        f1=f1,
    )
    p_true = 1.0 + 0.3 * np.cos(np.pi * grid.nodes)
    _, psi = forward_simulate(InverseProblem(**base), p_true, PicardOptions(tol=1e-12))
    rec = reconstruct(InverseProblem(psi=psi, **base))
    err = np.max(np.abs(rec.p - p_true)) / np.max(np.abs(p_true))
    assert err < 2e-3


def test_analytic_derivative_tightens_the_round_trip():
    problem = make_problem(n_modes=1, n_t=512)
    t = problem.grid.nodes
    p_true = 1.0 + 0.5 * np.sin(2.0 * np.pi * t)
    _, psi = forward_simulate(problem, p_true, PicardOptions(tol=1e-12))
    # differentiate a refined forward run to stand in for the analytic psi'
    fine = make_problem(n_modes=1, n_t=4096)
    _, psi_fine = forward_simulate(fine, 1.0 + 0.5 * np.sin(2.0 * np.pi * fine.grid.nodes),
                                   PicardOptions(tol=1e-12))
    psi_prime = np.gradient(psi_fine, fine.grid.nodes, edge_order=2)[::8]
    rec_fd = reconstruct(make_problem(n_modes=1, n_t=512, psi=psi))
    rec_an = reconstruct(
        make_problem(n_modes=1, n_t=512, psi=psi, psi_prime=psi_prime)
    )
    err_fd = np.max(np.abs(rec_fd.p - p_true))
    err_an = np.max(np.abs(rec_an.p - p_true))
    assert err_an <= err_fd


def test_problem_shape_validation():
    basis = build_basis(Interval(1.0), 3)
    grid = TimeGrid.uniform(1.0, 16)
    with pytest.raises(ValueError):
        InverseProblem(
            basis=basis,
            grid=grid,
            kernel=MemoryKernel.zero(),
            g=np.ones(2),  # wrong length
            kappa=np.ones(3),
            xi=np.zeros(3),
        )
    with pytest.raises(ValueError, match="psi_prime length"):
        InverseProblem(
            basis=basis,
            grid=grid,
            kernel=MemoryKernel.zero(),
            g=np.ones(3),
            kappa=np.ones(3),
            xi=np.zeros(3),
            psi_prime=np.zeros(3),  # wrong length
        )


# -- the one-column formula against the all-modes oracle ----------------------


def reconstruct_all_modes(problem, opts, ctx):
    """(solution, p) by the all-modes form of the elimination, the oracle of
    ``reconstruct``: the sweeps convolve m' with every mode of the state,
    the reaction adds c psi' g last, and p is formed a second time on the
    solved state."""
    psi_prime = problem.psi_prime
    if psi_prime is None:
        psi_prime = derivative_psi(problem.psi, problem.grid)
    kernel = problem.kernel
    m0 = kernel.value_at_zero()
    m1 = kernel.derivative_history_kernel()
    kappa = problem.kappa
    c = 1.0 / problem.pairing
    f1 = problem.f1
    grad_weight = problem.basis.eigenvalues * kappa

    forcing = (c * psi_prime)[:, None] * problem.g[None, :]

    def eliminated(V, W, basis):
        # W is m' * V, supplied by the solver's history pass
        f1_rows = f1.apply_series(V, np.zeros_like(V), basis)
        f2 = (1.0 + m0) * (V @ grad_weight) + W @ grad_weight - f1_rows @ kappa
        return problem.g[None, :] * (c * f2)[:, None] + f1_rows + forcing

    spec = Nonlinearity.custom_series(eliminated, mu=f1.mu, delta=f1.delta)
    sol = picard_solve(ctx, spec, m1, problem.xi, opts)
    U = sol.coeffs
    gpu = U @ grad_weight
    conv_gpu = nonlinear.history_series(m1, gpu[:, None], problem.grid)[:, 0]
    f1_pair = f1.apply_series(U, np.zeros_like(U), problem.basis) @ kappa
    return sol, c * (psi_prime + (1.0 + m0) * gpu + conv_gpu - f1_pair)


KERNEL_KINDS = {
    "exponential": lambda m0, r: MemoryKernel.exponential(m0, 1.0 + 3.0 * r),
    "constant": lambda m0, r: MemoryKernel.constant(m0),
    # samples inside (0, T): m' is 0 before the first and after the last
    "tabulated": lambda m0, r: MemoryKernel.tabulated(
        [0.1, 0.4 + 0.3 * r, 0.9], [m0, 0.5 * m0, 0.2 * m0]
    ),
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(KERNEL_KINDS)),
    m0=st.floats(0.1, 2.0),
    r=st.floats(0.0, 1.0),
    n_modes=st.integers(1, 4),
    n_t=st.sampled_from([32, 64, 128]),
    # a reaction, so reconstruct sweeps; without one it solves directly
    # (test_the_direct_solve_is_the_fixed_point_of_the_sweeps)
    power=st.sampled_from([2.0, 3.0]),
    analytic=st.booleans(),
    wobble=st.floats(-0.5, 0.5),
)
def test_one_column_formula_matches_the_all_modes_oracle(
    kind, m0, r, n_modes, n_t, power, analytic, wobble
):
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    n = np.arange(1, n_modes + 1)
    f1 = Nonlinearity.polynomial_power(power, scale=0.5)
    base = dict(
        basis=basis, grid=grid, kernel=KERNEL_KINDS[kind](m0, r),
        g=1.0 / n**2, kappa=1.0 / n, xi=0.05 / n**3, f1=f1,
    )
    t = grid.nodes
    _, psi = forward_simulate(
        InverseProblem(**base), 1.0 + wobble * np.sin(3.0 * t), PicardOptions(tol=1e-12)
    )
    data = dict(psi_prime=derivative_psi(psi, grid)) if analytic else dict(psi=psi)
    problem = InverseProblem(**base, **data)
    ctx = build_resolvent(problem.kernel, basis, grid)
    opts = PicardOptions(tol=1e-12)

    rec = reconstruct(problem, opts)
    sol, p = reconstruct_all_modes(problem, opts, ctx)
    assert rec.solution.iterations == sol.iterations
    np.testing.assert_allclose(rec.p, p, rtol=0.0, atol=1e-12 * np.max(np.abs(p)))
    np.testing.assert_allclose(
        rec.solution.coeffs, sol.coeffs, rtol=0.0,
        atol=1e-12 * np.max(np.abs(sol.coeffs)),
    )


def inverse_run(n_modes, n_t, f1=None):
    """A reconstruction problem of make_problem's shape, with psi made by
    forward_simulate."""
    problem = make_problem(n_modes=n_modes, n_t=n_t, f1=f1)
    _, psi = forward_simulate(problem, 1.0 + 0.5 * problem.grid.nodes)
    return make_problem(n_modes=n_modes, n_t=n_t, f1=f1, psi=psi)


def test_reconstruct_convolves_only_the_pairing_column(monkeypatch):
    # the state reaches m' * (grad u, grad kappa) through one column: no
    # history convolution of reconstruct sees the modes of the state.  With
    # a reaction that is one convolution a sweep and one for p; without one,
    # three for the direct solve (its two columns, its right-hand side and
    # its fixed-point defect), however many sweeps the solve would take
    seen = []
    convolve = nonlinear.product_convolve

    def recording(weights, phi):
        seen.append(np.shape(phi))
        return convolve(weights, phi)

    sweeps = inverse_run(6, 128, Nonlinearity.linear_diagonal(0.1 * np.ones(6)))
    direct = inverse_run(6, 128)
    monkeypatch.setattr(nonlinear, "product_convolve", recording)
    rec = reconstruct(sweeps)
    assert rec.method == "sweeps"
    assert len(seen) == rec.solution.iterations + 1
    assert all(shape == (129,) for shape in seen)

    seen.clear()
    rec = reconstruct(direct)
    assert rec.method == "direct" and rec.solution is None
    assert seen == [(129, 2), (129,), (129,)]


# -- the direct solve of a problem without a state reaction -------------------


DIRECT_KINDS = {**KERNEL_KINDS, "zero": lambda m0, r: MemoryKernel.zero()}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(DIRECT_KINDS)),
    m0=st.floats(0.1, 2.0),
    r=st.floats(0.0, 1.0),
    n_modes=st.integers(1, 4),
    stiff=st.booleans(),
    n_t=st.sampled_from([32, 64, 128]),
    analytic=st.booleans(),
    wobble=st.floats(-0.5, 0.5),
)
@example(kind="exponential", m0=1.0, r=0.5, n_modes=1, stiff=False, n_t=64,
         analytic=False, wobble=0.3)
@example(kind="exponential", m0=1.0, r=0.5, n_modes=3, stiff=True, n_t=32,
         analytic=False, wobble=0.3)
def test_the_direct_solve_is_the_fixed_point_of_the_sweeps(
    kind, m0, r, n_modes, stiff, n_t, analytic, wobble
):
    # the direct p against two Picard oracles run to tol 1e-12: reconstruct
    # with a reaction that is zero but not of the zero kind, and the
    # all-modes form.  Their own stopping error reached 2.8e-11 of max |p|
    # in 150 draws of a wider range, so they must agree to 1e-10.  A stiff basis (the
    # interval of length 1/4, at most 64 steps: lambda_1 dt/2 >= 1.2) forces
    # the rectangle rule, and xi is nonzero
    length = 0.25 if stiff else 1.0
    if stiff:
        n_t = min(n_t, 64)
    basis = build_basis(Interval(length), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    n = np.arange(1, n_modes + 1)
    base = dict(basis=basis, grid=grid, kernel=DIRECT_KINDS[kind](m0, r),
                g=1.0 / n**2, kappa=1.0 / n, xi=0.05 / n**3)
    t = grid.nodes
    _, psi = forward_simulate(
        InverseProblem(**base), 1.0 + wobble * np.sin(3.0 * t), PicardOptions(tol=1e-12)
    )
    data = dict(psi_prime=derivative_psi(psi, grid)) if analytic else dict(psi=psi)
    problem = InverseProblem(**base, **data)
    scheme = identification_decision(problem)["scheme"]
    if stiff:
        assert scheme == "rectangle"
    opts = PicardOptions(tol=1e-12, max_iter=1000)

    rec = reconstruct(problem, opts)
    assert rec.solution is None and rec.residuals == ()
    zero_reaction = Nonlinearity.linear_diagonal(np.zeros(n_modes))
    swept = InverseProblem(**base, **data, f1=zero_reaction)
    assert identification_decision(swept)["scheme"] == scheme
    ctx = build_resolvent(problem.kernel, basis, grid, scheme)
    oracles = [reconstruct(swept, opts).p, reconstruct_all_modes(problem, opts, ctx)[1]]
    scale = np.max(np.abs(rec.p))
    for p in oracles:
        np.testing.assert_allclose(rec.p, p, rtol=0.0, atol=1e-10 * scale)

    # p(u) on the state that p drives, by the operators of the sweeps
    kernel = problem.kernel
    U = ctx.table.omega * problem.xi + convolve_sol_op(ctx, np.outer(rec.p, problem.g))
    gpu = U @ (basis.eigenvalues * problem.kappa)
    history = nonlinear.history_series(kernel.derivative_history_kernel(), gpu, grid)
    p_of_u = (rec.psi_prime + (1.0 + kernel.value_at_zero()) * gpu + history) / problem.pairing
    assert np.max(np.abs(rec.p - p_of_u)) <= 1e-13 * scale
    assert rec.defect <= 1e-13
    if not analytic:
        np.testing.assert_allclose(rec.measurement_residual, U @ problem.kappa - psi,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(psi)))


def test_the_direct_solve_runs_no_sweep_and_holds_about_one_table(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((inverse, "picard_solve"), (nonlinear, "convolve_sol_op"),
                         (resolvent, "convolve_sol_op")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # 8193 x 32 on the trapezoid rule: the table's own solve peaks at about
    # 3.2x the table (test_volterra's bound for it is 3.5x), and the direct
    # solve adds only series of one or two columns
    n_modes, n_t = 32, 8192
    basis = build_basis(Interval(4.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_t)
    g = 1.0 / np.arange(1, n_modes + 1) ** 2
    psi = 1.0 - np.exp(-grid.nodes)
    problem = InverseProblem(basis=basis, grid=grid, kernel=MemoryKernel.exponential(1.0, 2.0),
                             g=g, kappa=g, xi=np.zeros(n_modes), psi=psi)
    assert identification_decision(problem)["scheme"] == "trapezoid"
    tracemalloc.start()
    try:
        rec = reconstruct(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert rec.solution is None
    assert peak <= 3.5 * grid.nodes.size * n_modes * 8


def test_a_non_finite_direct_solve_raises_naming_its_row():
    # psi' = 1e308: row 0 gives p_0 = psi'_0 / (g, kappa), which is finite,
    # and the solve's transforms overflow from row 1 on
    problem = make_problem(n_modes=2, n_t=32, psi_prime=np.full(33, 1e308))
    with pytest.raises(NonConvergence, match="non-finite value at time row 1$") as info:
        reconstruct(problem)
    assert info.value.residuals == ()
    assert info.value.method == "direct"
