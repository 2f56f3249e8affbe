"""Solution-operator family: diagonal action, convolution, verified bounds."""

import contextlib
import math
import random
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstokes import (
    Interval,
    MemoryKernel,
    TimeGrid,
    build_basis,
    build_resolvent,
    convolve_sol_op,
    reciprocal_cumulative_integrable,
    verify_sol_op_bounds,
)
from rstokes.kernels import HistoryKernel
from rstokes import spectral, volterra
from rstokes.kernels import Check
from rstokes.resolvent import _profiles, _reciprocal_weight, _trial_draws
from rstokes.spectral import hnorm
from rstokes.volterra import fftconvolve, lag_weights, product_convolve, sampled_convolve

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
                ref = sampled_convolve(ctx.table.omega[:, j], g[:, j], dt, "trapezoid")
            else:
                ref = sampled_convolve(ctx.table.omega[:, j], g[:, j], dt, "rectangle")
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
    rows = verify_sol_op_bounds(ctx, n_trials=10, seed=3)
    bad = [(r.name, r.worst_margin) for r in rows if r.status == "fail"]
    assert not bad, bad
    labels = {r.name: r for r in rows}
    # no margin is taken at t = 0, where both sides of each bound meet
    assert all(r.t_worst > 0.0 for r in rows if r.status == "pass")
    assert labels["sol_op_bound"].worst_margin >= -1e-12
    assert labels["conv_smoothing_l2"].status == "pass"
    assert labels["derivative_decay"].status == "pass"
    assert labels["conv_smoothing_singular"].status == "pass"
    # the reciprocal-weight row needs 1/(1*m) integrable at 0, which only the
    # fractional kind provides; the others must skip rather than fake a pass
    expected = "pass" if kind == "fractional" else "skip"
    assert labels["conv_smoothing_reciprocal"].status == expected


def test_reciprocal_integrability_probe():
    assert reciprocal_cumulative_integrable(KERNELS["fractional"])
    assert not reciprocal_cumulative_integrable(KERNELS["zero"])
    assert not reciprocal_cumulative_integrable(KERNELS["constant"])
    assert not reciprocal_cumulative_integrable(KERNELS["exponential"])
    # 1/(m0 t) diverges at every scale m0
    for m0 in (1e3, 1e4):
        assert not reciprocal_cumulative_integrable(MemoryKernel.constant(m0))
        assert not reciprocal_cumulative_integrable(MemoryKernel.exponential(m0, 2.0))


@pytest.mark.parametrize("m0, alpha", [(1.0, 0.5), (0.1, 0.1), (10.0, 0.9), (3.7, 0.33)])
def test_the_reciprocal_weight_is_one_over_the_cumulative_kernel(m0, alpha):
    # the power law both rules convolve is 1/(1*m) of the fractional kind
    kernel = MemoryKernel.fractional(m0, alpha)
    t = np.geomspace(1e-6, 1e3, 200)
    np.testing.assert_allclose(_reciprocal_weight(kernel)(t), 1.0 / kernel.cumulative(t),
                               rtol=1e-13)


def test_derivative_decay_skips_on_increasing_tables():
    t = np.linspace(1.0, 16.0, 16) / 16.0
    kernel = MemoryKernel.tabulated(t, 1.0 + t)  # increasing, not in scope
    ctx = small_ctx(kernel, n_modes=4, n_t=64)
    decay = {r.name: r for r in verify_sol_op_bounds(ctx, n_trials=4)}["derivative_decay"]
    assert decay.status == "skip"
    assert "nonincreasing" in decay.reason


def test_verify_argument_validation():
    ctx = small_ctx(KERNELS["zero"], n_modes=3, n_t=32)
    with pytest.raises(ValueError):
        verify_sol_op_bounds(ctx, delta=1.5)
    with pytest.raises(ValueError):
        verify_sol_op_bounds(ctx, n_trials=0)


@pytest.mark.parametrize("kind", ["exponential", "fractional"])
def test_an_overflowing_bound_fails_its_row_without_a_warning(kind):
    # lam^mu overflows at mu = 200 on 16 modes, and each side of a smoothing
    # bound turns inf, its margin nan; nan < x is false, so the margin used
    # to be dropped and the row passed at +inf
    ctx = small_ctx(KERNELS[kind], n_modes=16, n_t=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = {r.name: r for r in verify_sol_op_bounds(ctx, mu=200.0, n_trials=3)}
    smoothing = ["conv_smoothing_l2", "conv_smoothing_singular"]
    if kind == "fractional":
        smoothing.append("conv_smoothing_reciprocal")
    for label in smoothing:
        row = rows[label]
        assert row.status == "fail" and not math.isfinite(row.worst_margin), row
    assert rows["sol_op_bound"].status == "pass"
    assert any(r.status == "fail" for r in rows.values())


def test_report_margins_are_reproducible():
    ctx = small_ctx(KERNELS["fractional"], n_modes=4, n_t=64)
    a = verify_sol_op_bounds(ctx, n_trials=5, seed=42)
    b = verify_sol_op_bounds(ctx, n_trials=5, seed=42)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_equal_seeds_give_identical_reports_and_bad_seeds_raise():
    ctx = small_ctx(KERNELS["fractional"], n_modes=4, n_t=64)

    def report(seed):
        rows = verify_sol_op_bounds(ctx, n_trials=5, seed=seed)
        return [(r.name, r.status, r.reason, _bits(r.worst_margin), _bits(r.t_worst))
                for r in rows]

    assert report(42) == report(42) == report(np.int64(42))
    assert report(42) != report(43)
    # the seed seeds the standard library's generator, first draw first
    rng = random.Random(42)
    first = _trial_draws(np.int64(42), 4, 5)[0][0]
    assert first.tobytes() == np.array([rng.gauss(0.0, 1.0) for _ in range(4)]).tobytes()
    for bad in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_sol_op_bounds(ctx, n_trials=2, seed=bad)
    for bad in (1.0, 2.5, np.float64(3.0)):
        with pytest.raises(TypeError):
            verify_sol_op_bounds(ctx, n_trials=2, seed=bad)


def _oracle_trial_series(t, amp, phase):
    profile = 1.0 + 0.5 * np.sin(2.0 * np.pi * t[:, None] / t[-1] + phase[None, :])
    return amp[None, :] * profile


def verify_oracle(ctx, mu=1.0, delta=0.5, n_trials=20, seed=0, tol=1e-8):
    """The list-based report: every trial series and its convolution built
    first, one convolution per trial and rule.

    Also returns, for sol_op_bound and derivative_decay, the nodes and the
    smallest margin over the trials at each node."""
    t = ctx.grid.nodes
    omega = ctx.table.omega
    basis = ctx.basis
    n_modes = basis.n_modes
    sol_op_draws, pairs, decay_draws = _trial_draws(seed, n_modes, n_trials)
    rows = []
    node_margins = {}

    def worst_row(label, worst, t_at):
        return Check(label, "pass" if worst >= -tol else "fail", worst, t_at)

    def skip(label, reason):
        return Check(label, "skip", float("nan"), float("nan"), reason=reason)

    # sol_op_bound and the smoothing rows over t > 0, where the two sides of
    # each bound do not meet by construction
    worst, t_at = np.inf, 0.0
    at_nodes = np.full(t.size - 1, np.inf)
    for xi in sol_op_draws:
        lhs = hnorm(omega * xi[None, :], basis, 0.0)
        margin = (omega[:, 0] * hnorm(xi, basis, 0.0) - lhs)[1:]
        np.minimum(at_nodes, margin, out=at_nodes)
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst, t_at = float(margin[i]), float(t[1 + i])
    rows.append(worst_row("sol_op_bound", worst, t_at))
    node_margins["sol_op_bound"] = (t[1:], at_nodes)

    rectangle = ctx.table.scheme == "rectangle"

    def smoothing(trials, convs, rho, weight_at_nodes, weight_moments):
        worst, t_at = np.inf, 0.0
        for g, conv in zip(trials, convs):
            lhs = hnorm(conv, basis, mu) ** 2
            q = hnorm(g, basis, rho) ** 2
            if rectangle:
                k = np.concatenate(([0.0], weight_at_nodes))
                rhs = sampled_convolve(k, q, ctx.grid.dt, "rectangle")
            else:
                rhs = weight_moments(q)
            margin = (rhs - lhs)[1:]
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst, t_at = float(margin[i]), float(t[1 + i])
        return worst, t_at

    dt = ctx.grid.dt
    trials = [_oracle_trial_series(t, amp, phase) for amp, phase in pairs]
    convs = [convolve_sol_op(ctx, g) for g in trials]
    l2 = smoothing(
        trials, convs, mu - 1.0, omega[1:, 0],
        lambda q: sampled_convolve(omega[:, 0], q, dt, "trapezoid"),
    )
    rows.append(worst_row("conv_smoothing_l2", *l2))

    if ctx.kernel.nonincreasing:
        worst, t_at = np.inf, 0.0
        at_nodes = np.full(t.size - 5, np.inf)
        for xi in decay_draws:
            norm_xi = hnorm(xi, basis, 0.0)
            dq = hnorm(np.diff(omega, axis=0) * xi[None, :], basis, 0.0) / ctx.grid.dt
            margin = 1.0 / t[4:-1] - dq[4:] / norm_xi
            np.minimum(at_nodes, margin, out=at_nodes)
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst, t_at = float(margin[i]), float(t[4 + i])
        rows.append(worst_row("derivative_decay", worst, t_at))
        node_margins["derivative_decay"] = (t[4:-1], at_nodes)
    else:
        rows.append(skip("derivative_decay", "kernel is not nonincreasing"))

    w_sing = lag_weights(HistoryKernel.powerlaw(1.0, -delta).moments, ctx.grid)
    singular = smoothing(
        trials, convs, mu - 1.0 - delta, t[1:] ** (-delta),
        lambda q: product_convolve(w_sing, q),
    )
    rows.append(worst_row("conv_smoothing_singular", *singular))
    if reciprocal_cumulative_integrable(ctx.kernel):
        rec = _reciprocal_weight(ctx.kernel)
        rec_vals, w_rec = rec(t[1:]), lag_weights(rec.moments, ctx.grid)
        recip = smoothing(
            trials, convs, mu - 2.0, rec_vals,
            lambda q: product_convolve(w_rec, q),
        )
        rows.append(worst_row("conv_smoothing_reciprocal", *recip))
    else:
        rows.append(
            skip(
                "conv_smoothing_reciprocal",
                "1/(1*m) is not integrable at t = 0 for a kernel bounded there",
            )
        )
    return rows, node_margins


def _bits(x):
    return struct.pack("<d", x)


def assert_matching_report(a, b, node_margins):
    """Same rows, statuses and reasons; worst times and margins to rounding.

    b and node_margins come from ``verify_oracle``.  The smoothing margins
    come from superposed profile convolutions, and the sol_op_bound and
    derivative_decay margins from quadratic forms, (omega * omega) @ xi^2,
    not from one table per trial, so they may differ from the oracle's in
    the last bits: within 1e-12 * max(1, |margin|).  Every skip and every
    smoothing row keeps the bits of its worst time.  A quadratic-form row's
    worst time must be a node where the oracle's margin lies within that
    bound of the oracle's worst: rounding picks among such near ties (one
    mode, where the margin is rounding at every node), so a worst node with
    no near tie keeps its bits.
    """
    assert [r.name for r in a] == [r.name for r in b]
    for ra, rb in zip(a, b):
        assert (ra.name, ra.status, ra.param, ra.reason) == (
            rb.name, rb.status, rb.param, rb.reason)
        if ra.status == "skip":
            assert _bits(ra.worst_margin) == _bits(rb.worst_margin), ra.name
            assert _bits(ra.t_worst) == _bits(rb.t_worst), ra.name
            continue
        bound = 1e-12 * max(1.0, abs(rb.worst_margin))
        assert abs(ra.worst_margin - rb.worst_margin) <= bound, ra.name
        if ra.name in node_margins:
            times, margins = node_margins[ra.name]
            (at,) = np.flatnonzero(times == ra.t_worst)
            assert margins[at] <= rb.worst_margin + bound, ra.name
        else:
            assert _bits(ra.t_worst) == _bits(rb.t_worst), ra.name


@st.composite
def verify_kernels(draw):
    kind = draw(st.sampled_from(["fractional", "exponential", "constant", "tabulated"]))
    m0 = draw(st.floats(0.1, 10.0))
    if kind == "fractional":
        return MemoryKernel.fractional(m0, draw(st.floats(0.1, 0.9)))
    if kind == "exponential":
        return MemoryKernel.exponential(m0, draw(st.floats(0.1, 20.0)))
    if kind == "constant":
        return MemoryKernel.constant(m0)
    # any nonnegative table, so both derivative_decay branches are drawn
    size = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    return MemoryKernel.tabulated(np.cumsum(gaps), values)


@given(
    kernel=verify_kernels(),
    scheme=st.sampled_from(["trapezoid", "rectangle"]),
    n_modes=st.integers(1, 6),
    n_steps=st.integers(5, 80),
    n_trials=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(0.0, 2.0),
    delta=st.floats(0.05, 0.95),
    # the default block size, or blocks small enough that the trial norms
    # run in several (ragged) row blocks
    small_blocks=st.booleans(),
)
def test_streamed_report_matches_the_per_trial_oracle(
    kernel, scheme, n_modes, n_steps, n_trials, seed, mu, delta, small_blocks
):
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_steps)
    ctx = build_resolvent(kernel, basis, grid, scheme)
    blocks = (
        mock.patch.object(spectral, "_BLOCK", 8)
        if small_blocks
        else contextlib.nullcontext()
    )
    with np.errstate(all="ignore"), blocks:
        streamed = verify_sol_op_bounds(ctx, mu, delta, n_trials, seed)
        oracle, node_margins = verify_oracle(ctx, mu, delta, n_trials, seed)
    assert_matching_report(streamed, oracle, node_margins)


@pytest.mark.parametrize("kind", ["fractional", "exponential"])
def test_streamed_report_equals_oracle_at_workload_shape(kind):
    # the automatic scheme: rectangle for the stiff fractional batch,
    # trapezoid for the smooth kernel
    ctx = small_ctx(KERNELS[kind], n_modes=16, n_t=1024)
    assert_matching_report(
        verify_sol_op_bounds(ctx, n_trials=20, seed=7),
        *verify_oracle(ctx, n_trials=20, seed=7),
    )


@given(
    kernel=verify_kernels(),
    scheme=st.sampled_from(["trapezoid", "rectangle"]),
    n_modes=st.integers(1, 8),
    n_steps=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_superposed_profiles_match_the_convolved_trial_series(
    kernel, scheme, n_modes, n_steps, seed
):
    # S*g of g = amp * (1 + sin(2 pi t/T + phase)/2) is amp * (P0 + a P1 + b P2),
    # P_k = S*E_k of the shared profiles, a = cos(phase)/2, b = sin(phase)/2
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_steps)
    ctx = build_resolvent(kernel, basis, grid, scheme)
    t = ctx.grid.nodes
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    g = amp * (1.0 + 0.5 * np.sin(2.0 * np.pi * t[:, None] / t[-1] + phase))
    p0, p1, p2 = (convolve_sol_op(ctx, e) for e in _profiles(t))
    superposed = amp * (p0 + 0.5 * np.cos(phase) * p1 + 0.5 * np.sin(phase) * p2)
    ref = convolve_sol_op(ctx, g)
    assert np.max(np.abs(superposed - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scheme", ["trapezoid", "rectangle"])
def test_verify_transforms_do_not_grow_with_trials(scheme, monkeypatch):
    # the trials share the profile and rule convolutions: no FFT per trial
    ctx = build_resolvent(
        KERNELS["fractional"], build_basis(Interval(1.0), 6), TimeGrid.uniform(1.0, 256), scheme
    )
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fftconvolve(*args, **kwargs)

    monkeypatch.setattr(volterra, "fftconvolve", counting)

    def transforms(n_trials):
        calls.clear()
        verify_sol_op_bounds(ctx, n_trials=n_trials, seed=3)
        return len(calls)

    assert 0 < transforms(2) == transforms(40)


def test_verify_memory_does_not_grow_with_trials():
    # one trial series (and its convolution) alive at a time: 38 more trials
    # may add their amplitude and phase draws, not their series
    ctx = small_ctx(KERNELS["fractional"], n_modes=16, n_t=1024)
    series = ctx.table.omega.nbytes

    def peak(n_trials):
        tracemalloc.start()
        try:
            verify_sol_op_bounds(ctx, n_trials=n_trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm any lazily built state first
    assert peak(40) - peak(2) < 2 * series


def test_derivative_decay_skips_on_grids_of_four_steps_or_fewer():
    for n_t in (2, 4):
        ctx = small_ctx(KERNELS["fractional"], n_modes=3, n_t=n_t)
        rows = {r.name: r for r in verify_sol_op_bounds(ctx, n_trials=2)}
        assert rows["derivative_decay"].status == "skip"
        assert rows["sol_op_bound"].status == "pass"
    ctx = small_ctx(KERNELS["fractional"], n_modes=3, n_t=5)
    rows = {r.name: r for r in verify_sol_op_bounds(ctx, n_trials=2)}
    assert rows["derivative_decay"].status == "pass"
