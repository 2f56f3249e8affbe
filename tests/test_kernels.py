"""Memory and history kernels: closed forms against quadrature, certificates
against hand-solvable cases."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gamma

from bits import same_bits
from rstokes import (
    HistoryKernel,
    MemoryKernel,
    TimeGrid,
    certify_completely_positive,
    certify_pc,
)
from rstokes.kernels import _interpolant_from_table
from rstokes.volterra import first_kind_solve, second_kind_solve

ANALYTIC_KERNELS = [
    MemoryKernel.zero(),
    MemoryKernel.constant(0.7),
    MemoryKernel.fractional(1.0, 0.5),
    MemoryKernel.fractional(0.4, 0.25),
    MemoryKernel.exponential(2.0, 3.0),
]


@pytest.mark.parametrize("kernel", ANALYTIC_KERNELS, ids=lambda k: k.kind)
def test_cumulative_matches_quadrature(kernel):
    for t in (0.3, 1.0, 2.5):
        ref, _ = quad(kernel, 0.0, t, points=[0.0])
        assert kernel.cumulative(t) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("kernel", ANALYTIC_KERNELS, ids=lambda k: k.kind)
def test_cell_moments_match_quadrature(kernel):
    lo = np.array([0.0, 0.1, 0.8])
    hi = np.array([0.1, 0.8, 2.0])
    m0, m1 = kernel.moments(lo, hi)
    for i in range(lo.size):
        r0, _ = quad(kernel, lo[i], hi[i], points=[0.0])
        r1, _ = quad(lambda s: s * kernel(s), lo[i], hi[i], points=[0.0])
        assert m0[i] == pytest.approx(r0, abs=1e-10)
        assert m1[i] == pytest.approx(r1, abs=1e-10)


MEMORY_KERNELS = ANALYTIC_KERNELS + [
    MemoryKernel.fractional(1.3, 0.4),
    MemoryKernel.fractional(2.9, 0.85),
    MemoryKernel.exponential(1.0, 2.0),
    MemoryKernel.tabulated([0.5, 1.0, 2.0], [4.0, 2.0, 1.0]),
]


def _closed_forms(kernel):
    """(moments, cumulative) of kernel as MemoryKernel wrote them per kind
    before it held m as a history kernel: the bits that the recorded
    seed-0 outputs were made with.  The fractional cumulative integral is
    the first moment of the cell [0, t]."""
    m0, a, c = kernel.m0, kernel.alpha, kernel.decay
    if kernel.kind == "zero":
        return (lambda lo, hi: (np.zeros(lo.shape), np.zeros(lo.shape)),
                lambda t: np.zeros_like(t))
    if kernel.kind == "constant":
        return (lambda lo, hi: (m0 * (hi - lo), m0 * (hi**2 - lo**2) / 2.0),
                lambda t: m0 * t)
    if kernel.kind == "fractional":
        g = m0 / math.gamma(a)
        def moments(lo, hi):
            return (g * (hi ** (1.0 - a) - lo ** (1.0 - a)) / (1.0 - a),
                    g * (hi ** (2.0 - a) - lo ** (2.0 - a)) / (2.0 - a))
        return moments, lambda t: moments(0.0, t)[0]
    if kernel.kind == "exponential":
        def moments(lo, hi):
            ea, eb = np.exp(-c * lo), np.exp(-c * hi)
            return (m0 * (ea - eb) / c,
                    m0 * ((lo / c + 1.0 / c**2) * ea - (hi / c + 1.0 / c**2) * eb))
        return moments, lambda t: m0 * (1.0 - np.exp(-c * t)) / c
    f = _interpolant_from_table(kernel.table_t, kernel.table_m)
    return (lambda lo, hi: (f.integral0(hi) - f.integral0(lo),
                            f.integral1(hi) - f.integral1(lo)),
            f.integral0)


# kernel moments take any cells, so uneven ones (the edges 2.5 (i/96)^2) too
@pytest.mark.parametrize(
    "t",
    [TimeGrid.uniform(2.5, 96).nodes, 2.5 * (np.arange(97) / 96.0) ** 2],
    ids=["uniform", "graded"],
)
@pytest.mark.parametrize("kernel", MEMORY_KERNELS, ids=lambda k: k.kind)
def test_memory_closed_forms_keep_their_bits(kernel, t):
    lo, hi = t[:-1], t[1:]
    moments, cumulative = _closed_forms(kernel)
    want = moments(lo, hi)
    want_a = ((hi - lo) + want[0], (hi**2 - lo**2) / 2.0 + want[1])
    for got, ref in zip(kernel.moments(lo, hi) + kernel.a_moments(lo, hi),
                        want + want_a):
        assert got.tobytes() == ref.tobytes()
    assert kernel.cumulative(t).tobytes() == cumulative(t).tobytes()


def _history_cumulative(ell):
    """int_0^t ell as HistoryKernel wrote it per kind before it took every
    cumulative integral from its moments."""
    A, c, q = ell.amplitude, ell.decay, ell.exponent
    if ell.kind == "zero":
        return np.zeros_like
    if ell.kind == "constant":
        return lambda t: A * t
    if ell.kind == "exponential":
        return lambda t: A * (1.0 - np.exp(-c * t)) / c
    if ell.kind == "powerlaw":
        return lambda t: A * t ** (q + 1.0) / (q + 1.0)
    return ell._interp.integral0


HISTORY_KERNELS = [
    HistoryKernel.zero(),
    HistoryKernel.constant(-1.2),
    HistoryKernel.exponential(2.0, 3.0),
    HistoryKernel.powerlaw(1.3, -0.4),
    HistoryKernel.powerlaw(-0.7, 0.6),
    HistoryKernel.tabulated([0.2, 0.5, 0.9], [1.0, -2.0, 0.5]),
    # the step m' of a tabulated memory kernel
    MemoryKernel.tabulated([0.5, 1.0, 2.0], [4.0, 2.0, 1.0]).derivative_history_kernel(),
]
HISTORY_IDS = ["zero", "constant", "exponential", "powerlaw-positive",
               "powerlaw-negative", "tabulated", "step"]


@pytest.mark.parametrize(
    "t",
    [TimeGrid.uniform(2.5, 96).nodes, 2.5 * (np.arange(97) / 96.0) ** 2],
    ids=["uniform", "graded"],
)
@pytest.mark.parametrize("ell", HISTORY_KERNELS, ids=HISTORY_IDS)
def test_history_cumulative_keeps_its_bits(ell, t):
    assert ell.cumulative(t).tobytes() == _history_cumulative(ell)(t).tobytes()


def test_a_moments_add_the_identity_part():
    kernel = MemoryKernel.exponential(1.0, 2.0)
    lo, hi = np.array([0.2]), np.array([0.9])
    m0, m1 = kernel.moments(lo, hi)
    a0, a1 = kernel.a_moments(lo, hi)
    assert a0[0] == pytest.approx(m0[0] + 0.7)
    assert a1[0] == pytest.approx(m1[0] + (0.81 - 0.04) / 2.0)


def test_fractional_normalization():
    # m = m0 t^(-alpha) / Gamma(alpha), so 1*m = m0 t^(1-alpha) / ((1-alpha) Gamma(alpha))
    m0, alpha = 1.3, 0.4
    kernel = MemoryKernel.fractional(m0, alpha)
    t = 0.77
    assert kernel(t) == pytest.approx(m0 * t ** (-alpha) / gamma(alpha))
    assert kernel.cumulative(t) == pytest.approx(
        m0 * t ** (1.0 - alpha) / ((1.0 - alpha) * gamma(alpha))
    )


def test_tabulated_interpolates_and_extends_flat():
    kernel = MemoryKernel.tabulated([0.5, 1.0, 2.0], [4.0, 2.0, 1.0])
    assert kernel(0.75) == pytest.approx(3.0)
    assert kernel(0.1) == pytest.approx(4.0)  # flat left extension
    assert kernel(5.0) == pytest.approx(1.0)  # flat right extension
    ref, _ = quad(kernel, 0.0, 3.0, points=[0.5, 1.0, 2.0])
    assert kernel.cumulative(3.0) == pytest.approx(ref, abs=1e-9)


def test_structural_flags():
    assert MemoryKernel.zero().bounded_at_zero
    assert not MemoryKernel.fractional(1.0, 0.5).bounded_at_zero
    assert MemoryKernel.exponential(1.0, 1.0).nonincreasing
    assert not MemoryKernel.tabulated([0.5, 1.0], [1.0, 2.0]).nonincreasing
    assert MemoryKernel.constant(2.0).value_at_zero() == 2.0
    with pytest.raises(ValueError):
        MemoryKernel.fractional(1.0, 0.5).value_at_zero()


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        MemoryKernel.fractional(1.0, 1.2)
    with pytest.raises(ValueError):
        MemoryKernel.fractional(0.0, 0.5)
    with pytest.raises(ValueError):
        MemoryKernel.constant(-1.0)
    with pytest.raises(ValueError):
        MemoryKernel.exponential(1.0, 0.0)
    with pytest.raises(ValueError):
        MemoryKernel.tabulated([0.5, 1.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        MemoryKernel.tabulated([0.0, 1.0], [1.0, 0.5])  # sample at t = 0
    for t, v in (([0.5, np.nan], [1.0, 0.5]), ([0.5, 1.0], [np.inf, 0.5]),
                 ([0.5, 1.0], [1.0, np.nan])):
        for cls in (MemoryKernel, HistoryKernel):
            with pytest.raises(ValueError, match="must be finite"):
                cls.tabulated(t, v)


# -- derivative gate ----------------------------------------------------------


def test_derivative_integrability_probe():
    # m' is integrable at 0 exactly when m is bounded there; the inverse
    # gate reads bounded_at_zero
    assert MemoryKernel.exponential(1.0, 2.0).bounded_at_zero
    assert MemoryKernel.constant(1.0).bounded_at_zero
    assert MemoryKernel.zero().bounded_at_zero
    assert MemoryKernel.tabulated([0.5, 1.0], [2.0, 1.0]).bounded_at_zero
    # |m'| ~ t^(-alpha-1) is not integrable at 0
    assert not MemoryKernel.fractional(1.0, 0.5).bounded_at_zero
    # the answer does not depend on the kernel's scale
    assert not MemoryKernel.fractional(1e-12, 0.5).bounded_at_zero
    assert MemoryKernel.exponential(1.0, 100.0).bounded_at_zero


def test_derivative_history_kernel_of_exponential():
    m0, c = 1.5, 2.0
    mk = MemoryKernel.exponential(m0, c)
    hk = mk.derivative_history_kernel()
    t = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(hk(t), -m0 * c * np.exp(-c * t), rtol=1e-13)


def _step_integrals(edges, values, lo, hi):
    """int and int s * (.) of the step values[i] on [edges[i], edges[i+1])."""
    a = np.clip(lo[:, None], edges[:-1], edges[1:])
    b = np.clip(hi[:, None], edges[:-1], edges[1:])
    return (b - a) @ values, (b**2 - a**2) / 2.0 @ values


@pytest.mark.parametrize(
    "t, m, slopes",
    [([0.5, 1.0, 2.0], [4.0, 2.0, 1.0], [-4.0, -1.0]), ([0.5, 1.0], [4.0, 2.0], [-4.0])],
)
def test_derivative_history_kernel_of_a_table_is_the_interpolant_s_slope(t, m, slopes):
    # m' used to keep the first slope on [0, t_0] and the last one past the
    # table (and a two-sample table's slope everywhere), where m is flat
    hk = MemoryKernel.tabulated(t, m).derivative_history_kernel()
    probes = [0.1, 0.75, 1.5, 3.0] if len(t) == 3 else [0.1, 0.75, 1.5]
    expect = [0.0, -4.0, -1.0, 0.0] if len(t) == 3 else [0.0, -4.0, 0.0]
    np.testing.assert_array_equal(hk(np.array(probes)), expect)
    edges = np.array(t)
    lo = np.array([0.0, 0.2, 0.7, 0.9, 1.2, 0.0, 2.5])
    hi = np.array([0.5, 0.8, 0.95, 1.1, 2.7, 4.0, 3.0])
    a0, a1 = hk.moments(lo, hi)
    e0, e1 = _step_integrals(edges, np.array(slopes), lo, hi)
    np.testing.assert_allclose(a0, e0, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(a1, e1, rtol=1e-14, atol=1e-15)
    # m(T) - m(0) over any horizon: the table's total drop
    assert hk.cumulative(10.0) == pytest.approx(m[-1] - m[0], rel=1e-14)


# -- complete positivity ------------------------------------------------------


def minima(rows, name):
    """The worst margins of the rows called name, in row (theta) order."""
    return np.array([r.worst_margin for r in rows if r.name == name])


def test_cp_zero_kernel_matches_exponential():
    # a = 1: both defining solutions are e^{-theta t}, minimum at t = T
    grid = TimeGrid.uniform(1.0, 4096)
    rows = certify_completely_positive(MemoryKernel.zero(), grid, thetas=(0.5, 2.0))
    assert all(r.status == "pass" for r in rows)
    assert [(r.name, r.param) for r in rows] == [
        ("completely_positive_s", 0.5), ("completely_positive_r", 0.5),
        ("completely_positive_s", 2.0), ("completely_positive_r", 2.0),
    ]
    np.testing.assert_allclose(minima(rows, "completely_positive_s"),
                               np.exp([-0.5, -2.0]), atol=1e-6)
    np.testing.assert_allclose(minima(rows, "completely_positive_r"),
                               np.exp([-0.5, -2.0]), atol=1e-4)


def test_cp_constant_kernel_matches_scaled_exponential():
    # a = 1 + m0: s = e^{-theta(1+m0)t}, r = (1+m0) e^{-theta(1+m0)t}
    grid = TimeGrid.uniform(1.0, 4096)
    rows = certify_completely_positive(
        MemoryKernel.constant(1.0), grid, thetas=(0.5, 2.0)
    )
    assert all(r.status == "pass" for r in rows)
    np.testing.assert_allclose(minima(rows, "completely_positive_s"),
                               np.exp([-1.0, -4.0]), atol=1e-6)
    np.testing.assert_allclose(minima(rows, "completely_positive_r"),
                               2.0 * np.exp([-1.0, -4.0]), atol=1e-4)


def test_cp_fractional_passes():
    grid = TimeGrid.uniform(1.0, 1024)
    rows = certify_completely_positive(MemoryKernel.fractional(1.0, 0.5), grid)
    assert all(r.status == "pass" for r in rows)
    assert np.all(minima(rows, "completely_positive_s") > 0.0)


def test_cp_rejects_kinked_table():
    # flat-then-decaying sample table: the concave kink makes r rebound below 0
    t = np.linspace(1.0, 33.0, 33) / 33.0
    vals = np.where(t < 0.25, 2.0, 2.0 * np.exp(-8.0 * (t - 0.25)))
    kernel = MemoryKernel.tabulated(t, vals)
    rows = certify_completely_positive(kernel, TimeGrid.uniform(1.0, 512))
    assert any(r.status == "fail" for r in rows)
    assert float(np.min(minima(rows, "completely_positive_r"))) < 0.0


def two_solve_cp_minima(kernel, grid, thetas):
    """The certificate's minima from its two equations solved one at a time:
    each column's value at its first smallest node, as a row reports it."""
    thetas = np.asarray(thetas, dtype=float)
    t = grid.nodes
    s, _ = second_kind_solve(kernel.a_moments, grid, thetas, np.ones_like(t))
    cells = np.concatenate(([0.0], kernel.a_moments(t[:-1], t[1:])[0]))
    d, _ = second_kind_solve(kernel.a_moments, grid, thetas, cells)
    r = d[1:] / grid.dt
    cols = np.arange(thetas.size)
    return s[s.argmin(axis=0), cols], r[r.argmin(axis=0), cols]


@given(
    kind=st.sampled_from(["zero", "constant", "fractional", "exponential", "table"]),
    m0=st.floats(0.1, 10.0),
    # up to 200 steps: up to eight Newton doublings on the rectangle rule
    n=st.integers(2, 200),
    thetas=st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=4),
)
def test_cp_one_solve_has_the_bits_of_two(kind, m0, n, thetas):
    kernel = {
        "zero": MemoryKernel.zero(),
        "constant": MemoryKernel.constant(m0),
        "fractional": MemoryKernel.fractional(m0, 0.5),
        "exponential": MemoryKernel.exponential(m0, 3.0),
        "table": MemoryKernel.tabulated([0.25, 0.5, 1.0], [m0, 0.5 * m0, 0.0]),
    }[kind]
    grid = TimeGrid.uniform(1.0, n)
    rows = certify_completely_positive(kernel, grid, thetas)
    min_s, min_r = two_solve_cp_minima(kernel, grid, thetas)
    assert same_bits(minima(rows, "completely_positive_s"), min_s)
    assert same_bits(minima(rows, "completely_positive_r"), min_r)


def test_cp_theta_validation():
    grid = TimeGrid.uniform(1.0, 32)
    with pytest.raises(ValueError):
        certify_completely_positive(MemoryKernel.zero(), grid, thetas=())
    with pytest.raises(ValueError):
        certify_completely_positive(MemoryKernel.zero(), grid, thetas=(0.0, 1.0))


# -- first-kind splitting certificate -----------------------------------------


def test_pc_fractional_matches_laplace_oracle():
    # m = t^(-1/2)/Gamma(1/2): the splitting weight has Laplace transform
    # 1/(1 + sqrt(s)), i.e. k(t) = 1/sqrt(pi t) - e^t erfc(sqrt t); its grid
    # minimum sits at the horizon
    grid = TimeGrid.uniform(1.0, 1024)
    kernel = MemoryKernel.fractional(1.0, 0.5)
    cert = certify_pc(kernel, grid)
    assert cert.status == "pass"
    k_end = 1.0 / np.sqrt(np.pi) - np.e * erfc(1.0)
    assert cert.worst_margin == pytest.approx(k_end, abs=3e-4)
    # the row's margin is min k; the increases it also bounds, recomputed
    k, _ = first_kind_solve(kernel.a_moments, grid, 1.0)
    assert cert.worst_margin == k.min()
    assert np.max(np.diff(k)) <= 1e-8


def test_pc_not_applicable_for_bounded_kernels():
    grid = TimeGrid.uniform(1.0, 64)
    for kernel in (MemoryKernel.zero(), MemoryKernel.exponential(1.0, 1.0)):
        cert = certify_pc(kernel, grid)
        assert cert.status == "not-applicable"
        assert math.isnan(cert.worst_margin) and cert.param is None


# -- history kernels ----------------------------------------------------------


def test_history_closed_forms():
    t = np.array([0.0, 0.5, 2.0])
    exp_k = HistoryKernel.exponential(3.0, 2.0)
    np.testing.assert_allclose(exp_k(t), 3.0 * np.exp(-2.0 * t))
    np.testing.assert_allclose(exp_k.cumulative(t), 1.5 * (1.0 - np.exp(-2.0 * t)))
    assert exp_k.cumulative_abs(2.0) == pytest.approx(1.5 * (1.0 - np.exp(-4.0)))

    pw = HistoryKernel.powerlaw(2.0, -0.5)
    assert pw.cumulative(1.0) == pytest.approx(4.0)  # 2 * t^{1/2} / (1/2)
    assert not pw.bounded_at_zero


def test_history_moments_match_quadrature():
    kernels = [
        HistoryKernel.constant(1.2),
        HistoryKernel.exponential(1.0, 0.7),
        HistoryKernel.powerlaw(1.0, -0.3),
    ]
    lo = np.array([0.0, 0.4])
    hi = np.array([0.4, 1.1])
    for ell in kernels:
        m0, m1 = ell.moments(lo, hi)
        for i in range(lo.size):
            r0, _ = quad(ell, lo[i], hi[i], points=[0.0])
            r1, _ = quad(lambda s: s * ell(s), lo[i], hi[i], points=[0.0])
            assert m0[i] == pytest.approx(r0, abs=1e-10)
            assert m1[i] == pytest.approx(r1, abs=1e-10)


def test_signed_history_abs_cumulative():
    # amplitude < 0: plain cumulative is negative, abs cumulative is not
    ell = HistoryKernel.exponential(-2.0, 1.0)
    assert ell.cumulative(1.0) == pytest.approx(-2.0 * (1.0 - np.exp(-1.0)))
    assert ell.cumulative_abs(1.0) == pytest.approx(2.0 * (1.0 - np.exp(-1.0)))


def test_history_powerlaw_validation():
    with pytest.raises(ValueError):
        HistoryKernel.powerlaw(1.0, -1.0)  # not locally integrable
