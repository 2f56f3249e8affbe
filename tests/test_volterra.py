"""Product-integration quadrature and the second/first-kind steppers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rstokes import HistoryKernel, MemoryKernel, TimeGrid, volterra
from rstokes.volterra import (
    STIFF_THRESHOLD,
    LagWeights,
    _fast_length,
    _toeplitz_solve,
    _uniform_second_kind,
    endpoint_weights,
    fftconvolve,
    first_kind_solve,
    lag_weights,
    product_convolve,
    rectangle_convolve,
    second_kind_solve,
    stiffness_scheme,
    trapezoid_convolve,
)


def direct_product_convolve(weights, phi):
    # O(N^2) reference for the fft path
    phi = np.atleast_2d(phi.T).T
    out = np.zeros_like(phi)
    for i in range(1, phi.shape[0]):
        for k in range(i):
            out[i] += weights.left[k] * phi[i - 1 - k] + weights.right[k] * phi[i - k]
    return out


def one_kernel_fftconvolve(a, b):
    # fftconvolve before it took several kernels: a 1-d operand next to a
    # 2-d one becomes a column, and both spectra are made here
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < b.ndim:
        a = a[:, None]
    elif b.ndim < a.ndim:
        b = b[:, None]
    size = _fast_length(a.shape[0] + b.shape[0] - 1)
    spectrum = np.fft.rfft(a, size, axis=0) * np.fft.rfft(b, size, axis=0)
    return np.fft.irfft(spectrum, size, axis=0)


def axis0_fftconvolve(a, b, start=0, stop=None):
    # fftconvolve as it was before it transformed contiguous (columns, rows)
    # blocks: every transform along axis 0 of the (rows, columns) operands,
    # and a 1-d operand next to a 2-d one as a column
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim > b.ndim:
        b = b[:, None]
    elif b.ndim > a.ndim:
        a = a[:, None]
    n = a.shape[0] + b.shape[0] - 1
    stop = n if stop is None else stop
    size = _fast_length(max(n - start, stop))
    spectrum = np.fft.rfft(a, size, axis=0) * np.fft.rfft(b, size, axis=0)
    return np.fft.irfft(spectrum, size, axis=0)[start:stop]


def fftconvolve_window(a, b, start=0, stop=None):
    # the window start..stop-1 (all rows after start by default) into a new
    # array of the shape the oracle gives
    rows = a.shape[0] + b.shape[0] - 1 if stop is None else stop
    columns = a.shape[1:] or b.shape[1:]
    return fftconvolve(a, b, np.empty((rows - start,) + columns), start)


def two_transform_product_convolve(weights, phi):
    # product_convolve as two convolutions that each transform phi again,
    # one per weight column: the oracle for the node-weight column
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0] - 1
    v = weights.right[:n]
    out = np.zeros_like(phi)
    out[1:] = (
        one_kernel_fftconvolve(weights.left[:n], phi)[:n]
        + one_kernel_fftconvolve(v, phi)[1 : n + 1]
    )
    out[1:n] -= np.multiply.outer(v[1:], phi[0])
    return out


def rectangle_loop(weights, lams, rhs):
    # O(N^2) row loop of the implicit rectangle rule: oracle for the
    # blocked-FFT Toeplitz solve
    a0 = weights.cell
    n = a0.size
    x = np.zeros((n + 1, lams.size))
    x[0] = rhs[0]
    denom = 1.0 + lams * a0[0]
    for i in range(1, n + 1):
        past = a0[i - 1 : 0 : -1] @ x[1:i] if i > 1 else 0.0
        x[i] = (rhs[i] - lams * past) / denom
    return x


def first_kind_loop(a0, rhs):
    # O(N^2) forward substitution of the uniform first-kind solve
    n = a0.size
    k = np.zeros(n + 1)
    for i in range(1, n + 1):
        past = a0[i - 1 : 0 : -1] @ k[1:i] if i > 1 else 0.0
        k[i] = (rhs[i] - past) / a0[0]
    return k[1:]


def rectangle_weights(kernel, n):
    # lag weights of n cells of width 1/n; a grid needs two steps, so n = 1
    # keeps the first cell of a two-step grid of the same width
    steps = max(n, 2)
    w = lag_weights(kernel.a_moments, TimeGrid.uniform(steps / n, steps))
    return LagWeights(w.left[:n], w.right[:n])


def test_lag_weights_nonnegative_and_telescoping():
    grid = TimeGrid.uniform(1.0, 64)
    for kernel in (
        MemoryKernel.fractional(1.0, 0.5),
        MemoryKernel.exponential(2.0, 3.0),
        MemoryKernel.constant(0.5),
    ):
        w = lag_weights(kernel.moments, grid)
        assert np.all(w.left >= 0.0)
        assert np.all(w.right >= 0.0)
        # cell masses sum to the cumulative integral
        np.testing.assert_allclose(
            np.cumsum(w.cell), kernel.cumulative(grid.nodes[1:]), rtol=1e-12
        )


def test_lag_weights_need_uniform_grid():
    with pytest.raises(ValueError):
        lag_weights(MemoryKernel.constant(1.0).moments, TimeGrid.graded(1.0, 8))


def test_product_convolve_matches_direct_loop():
    rng = np.random.default_rng(7)
    # full convolution lengths 80 (5-smooth) and 74 (padded to 75)
    for n in (40, 37):
        grid = TimeGrid.uniform(1.0, n)
        w = lag_weights(MemoryKernel.fractional(1.0, 0.3).moments, grid)
        phi = rng.standard_normal((n + 1, 3))
        np.testing.assert_allclose(
            product_convolve(w, phi), direct_product_convolve(w, phi), atol=1e-12
        )
        # 1-d input round-trips through the same path
        np.testing.assert_allclose(
            product_convolve(w, phi[:, 0]),
            direct_product_convolve(w, phi[:, 0])[:, 0],
            atol=1e-12,
        )


HISTORY_KERNELS = (
    HistoryKernel.exponential(-2.0, 3.0),
    HistoryKernel.powerlaw(1.0, -0.5),
    HistoryKernel.tabulated([0.2, 0.5, 0.9], [1.0, -2.0, 0.5]),
)


def assert_matches_the_two_transform_oracle(w, phi):
    # one convolution with left[m-1] + right[m] rounds differently from the
    # sum of two.  FFT rounding follows the sizes of the inputs, not of the
    # result (the tabulated kernel's signs cancel), so the bound is the
    # error size of two FFT convolutions of log2(size) stages each, plus one
    # for the product: 2 eps (1 + log2 size) sum(|left| + |right|) max|phi|.
    # Over 60,000 random draws (n = 2..3000, the three kernels, up to 4
    # columns) the largest difference was 0.30 of it, at n = 2
    n = phi.shape[0] - 1
    got, want = product_convolve(w, phi), two_transform_product_convolve(w, phi)
    assert got.shape == want.shape
    stages = 1.0 + np.log2(_fast_length(2 * n))
    size = np.sum(np.abs(w.left[:n]) + np.abs(w.right[:n])) * np.max(np.abs(phi))
    assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps * stages * size


@given(
    n=st.integers(2, 400),
    columns=st.integers(0, 4),
    kernel=st.sampled_from(HISTORY_KERNELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_convolve_matches_the_two_transform_oracle(n, columns, kernel, seed):
    grid = TimeGrid.uniform(1.0, n)
    w = lag_weights(kernel.moments, grid)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n + 1, columns) if columns else n + 1)
    assert_matches_the_two_transform_oracle(w, phi)


@pytest.mark.parametrize("n, columns", [(20000, 0), (8192, 4), (4096, 32)])
def test_product_convolve_keeps_its_bits_where_numpy_reuses_temporaries(n, columns):
    # spectra of 256 KiB and more: numpy may multiply into a temporary
    # operand in place, which is where an operand swap would change bits.
    # The one convolution with the node-weight column through the axis-0
    # oracle keeps them
    grid = TimeGrid.uniform(1.0, n)
    w = lag_weights(HISTORY_KERNELS[0].moments, grid)
    rng = np.random.default_rng(n)
    phi = rng.standard_normal((n + 1, columns) if columns else n + 1)
    node = np.zeros(n + 1)
    node[:n] = w.right[:n]
    node[1:] += w.left[:n]
    want = np.zeros_like(phi)
    want[1:] = axis0_fftconvolve(node, phi, 1, n + 1)
    want[1:n] -= np.multiply.outer(w.right[1:n], phi[0])
    assert product_convolve(w, phi).tobytes() == want.tobytes()
    assert_matches_the_two_transform_oracle(w, phi)


# operand lengths with a prime factor above 5, next to 5-smooth ones
LENGTHS = st.one_of(st.sampled_from([1, 2, 7, 64, 97, 127, 250, 263, 331]),
                    st.integers(1, 400))


@given(
    n_kernel=LENGTHS,
    n_operand=LENGTHS,
    columns=st.integers(0, 40),
    shapes=st.sampled_from(["column kernel", "column operand", "tables"]),
    window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans()),
    block=st.sampled_from([volterra._FFT_BLOCK, 1, 900]),
    min_columns=st.sampled_from([volterra._FFT_MIN_COLUMNS, 1, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120)
def test_fftconvolve_matches_the_axis0_oracle_bit_for_bit(
    n_kernel, n_operand, columns, shapes, window, block, min_columns, seed
):
    # columns = 0 makes both operands 1-d; otherwise one of them may be a
    # 1-d column shared by the other's.  Small blocks and column floors send
    # the columns through one or a few at a time, in ragged blocks
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_kernel, columns) if columns and shapes != "column kernel"
                           else n_kernel)
    b = rng.standard_normal((n_operand, columns) if columns and shapes != "column operand"
                            else n_operand)
    n = n_kernel + n_operand - 1
    lo, hi, whole = window
    start = min(int(lo * n), n - 1)
    stop = None if whole else start + 1 + int(hi * (n - 1 - start))
    with mock.patch.multiple(volterra, _FFT_BLOCK=block, _FFT_MIN_COLUMNS=min_columns):
        got = fftconvolve_window(a, b, start, stop)
    want = axis0_fftconvolve(a, b, start, stop)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, columns", [(8193, 32), (4097, 32), (8193, 16)])
def test_fftconvolve_keeps_the_axis0_bits_at_solver_sizes(rows, columns):
    # the S * f, ell * u and relaxation-table sizes of the solve commands
    rng = np.random.default_rng(rows + columns)
    b = rng.standard_normal((rows, columns))
    for a in (rng.standard_normal((rows - 1, columns)), rng.standard_normal(rows)):
        got, want = fftconvolve_window(a, b), axis0_fftconvolve(a, b)
        assert got.tobytes() == want.tobytes()


def test_fftconvolve_window_matches_full_convolution():
    # a window that skips leading rows wraps around onto them only
    rng = np.random.default_rng(11)
    for la, lb, start, stop in ((63, 32, 31, 63), (100, 50, 49, 100), (37, 37, 0, 20)):
        a = rng.standard_normal(la)
        b = rng.standard_normal((lb, 3))
        full = fftconvolve_window(a, b)
        np.testing.assert_allclose(
            fftconvolve_window(a, b, start, stop), full[start:stop], atol=1e-12
        )


@pytest.mark.parametrize("rule", [rectangle_convolve, trapezoid_convolve])
def test_a_1d_factor_next_to_a_table_is_a_shared_column(rule):
    # either factor may be the shared one; a square table is the case where
    # a misread shape would broadcast silently
    rng = np.random.default_rng(13)
    for rows, columns in ((6, 6), (33, 5)):
        table = rng.standard_normal((rows, columns))
        profile = rng.standard_normal(rows)
        for got, per_column in (
            (rule(table, profile, 0.1), lambda j: rule(table[:, j], profile, 0.1)),
            (rule(profile, table, 0.1), lambda j: rule(profile, table[:, j], 0.1)),
        ):
            want = np.stack([per_column(j) for j in range(columns)], axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "rule, bound", [(rectangle_convolve, 2.0), (product_convolve, 2.0)], ids=["rectangle", "product"]
)
def test_convolution_temporaries_are_a_block_not_a_table(rule, bound):
    # 8193 x 64: the whole-table spectra of the old layout peaked at 5x and
    # 7x of the result; a block of columns at a time stays near the result
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((8193, 64))
    if rule is product_convolve:
        weights = lag_weights(HISTORY_KERNELS[0].moments, TimeGrid.uniform(1.0, 8192))
        run = lambda: product_convolve(weights, phi)
    else:
        table = rng.standard_normal(phi.shape)
        run = lambda: rectangle_convolve(table, phi, 0.1)
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes


def test_fft_length_is_the_5_smooth_length_scipy_picks():
    from scipy.fft import next_fast_len

    for n in range(1, 3000):
        assert _fast_length(n) == next_fast_len(n, True), n


def test_product_convolve_is_exact_for_linear_data():
    # piecewise-linear quadrature integrates k * (c0 + c1 t) exactly
    grid = TimeGrid.uniform(1.0, 32)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    w = lag_weights(kernel.moments, grid)
    t = grid.nodes
    phi = 0.7 + 1.3 * t
    # int_0^t e^{-2s}(0.7 + 1.3(t-s)) ds by parts
    exact = 0.7 * (1 - np.exp(-2 * t)) / 2 + 1.3 * (
        t / 2 - (1 - np.exp(-2 * t)) / 4
    )
    np.testing.assert_allclose(product_convolve(w, phi), exact, atol=1e-13)


def test_trapezoid_convolve_matches_direct_loop():
    rng = np.random.default_rng(3)
    dt = 0.05
    # full convolution lengths 61 (padded to 64) and 77 (padded to 80)
    for n in (30, 38):
        k = rng.random(n + 1)
        phi = rng.standard_normal((n + 1, 2))
        out = trapezoid_convolve(k, phi, dt)
        ref = np.zeros_like(phi)
        for i in range(1, n + 1):
            vals = k[:i + 1][::-1, None] * phi[: i + 1]
            ref[i] = dt * (vals[0] / 2 + vals[1:-1].sum(axis=0) + vals[-1] / 2)
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_rectangle_convolve_matches_direct_loop():
    rng = np.random.default_rng(4)
    dt = 0.04
    # full convolution lengths 50 (5-smooth) and 74 (padded to 75)
    for n in (25, 37):
        k = rng.random(n + 1)
        phi = rng.standard_normal(n + 1)
        out = rectangle_convolve(k, phi, dt)
        ref = np.zeros(n + 1)
        for i in range(1, n + 1):
            ref[i] = dt * sum(k[j] * phi[i - j] for j in range(1, i + 1))
        np.testing.assert_allclose(out, ref, atol=1e-12)
        assert out[0] == 0.0
        # k[0] never enters: poisoning it changes nothing
        k_poisoned = k.copy()
        k_poisoned[0] = np.inf
        np.testing.assert_allclose(rectangle_convolve(k_poisoned, phi, dt), out)


def test_newest_left_weight_is_first_cell_left_moment():
    # the rule switches where max(lam) times the newest lag cell's left
    # weight crosses STIFF_THRESHOLD: the first cell's on a uniform grid, the
    # largest over the rows on a graded one
    kernel = MemoryKernel.fractional(1.0, 0.5)
    uniform = TimeGrid.uniform(1.0, 50)
    graded = TimeGrid.graded(1.0, 50, 2.0)
    steps = graded.steps()
    newest = [
        (uniform, lag_weights(kernel.a_moments, uniform).left[0]),
        (graded, np.max(endpoint_weights(kernel.a_moments, 0.0 * steps, steps, steps)[0])),
    ]
    for grid, u0 in newest:
        edge = STIFF_THRESHOLD / u0
        below = [0.5 * edge, edge * (1.0 - 1e-12)]
        above = [0.5 * edge, edge * (1.0 + 1e-12)]
        assert stiffness_scheme(kernel.a_moments, grid, below) == "trapezoid"
        assert stiffness_scheme(kernel.a_moments, grid, above) == "rectangle"
        assert second_kind_solve(kernel.a_moments, grid, below, 1.0)[1] == "trapezoid"
        assert second_kind_solve(kernel.a_moments, grid, above, 1.0)[1] == "rectangle"


def test_second_kind_scheme_selection_is_joint():
    grid = TimeGrid.uniform(1.0, 64)
    kernel = MemoryKernel.fractional(1.0, 0.5)
    u0 = lag_weights(kernel.a_moments, grid).left[0]
    lam_soft = 0.5 * STIFF_THRESHOLD / u0
    lam_stiff = 4.0 * STIFF_THRESHOLD / u0
    _, scheme = second_kind_solve(kernel.a_moments, grid, lam_soft, 1.0)
    assert scheme == "trapezoid"
    _, scheme = second_kind_solve(kernel.a_moments, grid, lam_stiff, 1.0)
    assert scheme == "rectangle"
    # one stiff column drags every column onto the rectangle rule
    _, scheme = second_kind_solve(
        kernel.a_moments, grid, np.array([lam_soft, lam_stiff]), 1.0
    )
    assert scheme == "rectangle"


def test_second_kind_scheme_override():
    grid = TimeGrid.uniform(1.0, 64)
    kernel = MemoryKernel.exponential(1.0, 1.0)
    x_auto, scheme_auto = second_kind_solve(kernel.a_moments, grid, 2.0, 1.0)
    assert scheme_auto == "trapezoid"
    x_forced, scheme_forced = second_kind_solve(
        kernel.a_moments, grid, 2.0, 1.0, scheme="rectangle"
    )
    assert scheme_forced == "rectangle"
    # both rules converge to the same resolvent, but differ at finite N
    assert 1e-6 < np.max(np.abs(x_auto - x_forced)) < 5e-2
    with pytest.raises(ValueError):
        second_kind_solve(kernel.a_moments, grid, 2.0, 1.0, scheme="simpson")


def test_second_kind_solves_the_discrete_equation():
    # plug the trapezoid solution back into its defining quadrature identity
    grid = TimeGrid.uniform(1.0, 48)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    lam = 3.0
    x, scheme = second_kind_solve(kernel.a_moments, grid, lam, 1.0)
    assert scheme == "trapezoid"
    w = lag_weights(kernel.a_moments, grid)
    residual = x + lam * product_convolve(w, x) - 1.0
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_second_kind_rhs_series():
    # rhs given as samples instead of a constant
    grid = TimeGrid.uniform(1.0, 32)
    kernel = MemoryKernel.constant(1.0)
    rhs = np.sin(grid.nodes)
    x, _ = second_kind_solve(kernel.a_moments, grid, 1.0, rhs)
    w = lag_weights(kernel.a_moments, grid)
    np.testing.assert_allclose(x + product_convolve(w, x), rhs, atol=1e-12)


@st.composite
def memory_kernels(draw):
    kind = draw(st.sampled_from(["fractional", "exponential", "constant", "tabulated"]))
    m0 = draw(st.floats(0.1, 10.0))
    if kind == "fractional":
        return MemoryKernel.fractional(m0, draw(st.floats(0.1, 0.9)))
    if kind == "exponential":
        return MemoryKernel.exponential(m0, draw(st.floats(0.1, 20.0)))
    if kind == "constant":
        return MemoryKernel.constant(m0)
    size = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    return MemoryKernel.tabulated(np.cumsum(gaps), values)


@given(
    kernel=memory_kernels(),
    scheme=st.sampled_from(["trapezoid", "rectangle"]),
    grading=st.sampled_from([1.0, 2.0]),
    # past 64 rows the rectangle rule runs the blocked FFT recursion
    n=st.integers(2, 160),
    columns=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_columns_have_the_bits_of_single_column_solves(
    kernel, scheme, grading, n, columns, seed
):
    # one right-hand side per lam: every path (uniform trapezoid row loop,
    # uniform rectangle Toeplitz solve, graded row loop) sums each column on
    # its own, so a batch is its columns solved one at a time
    grid = TimeGrid.graded(1.0, n, grading) if grading > 1.0 else TimeGrid.uniform(1.0, n)
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.01, 100.0, columns)
    rhs = rng.standard_normal((n + 1, columns))
    x, used = second_kind_solve(kernel.a_moments, grid, lams, rhs, scheme)
    assert used == scheme and x.shape == (n + 1, columns)
    for j in range(columns):
        single, _ = second_kind_solve(kernel.a_moments, grid, lams[j], rhs[:, j], scheme)
        assert np.array_equal(x[:, j], single), j


def test_second_kind_checks_a_per_column_rhs():
    grid = TimeGrid.uniform(1.0, 8)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    with pytest.raises(ValueError):
        second_kind_solve(kernel.a_moments, grid, [1.0, 2.0], np.ones((9, 3)))
    with pytest.raises(ValueError):
        second_kind_solve(kernel.a_moments, grid, [1.0, 2.0], np.ones((8, 2)))
    # a shared rhs and the same rhs per column give the same bits
    shared, _ = second_kind_solve(kernel.a_moments, grid, [1.0, 2.0], np.sin(grid.nodes))
    per_column, _ = second_kind_solve(
        kernel.a_moments, grid, [1.0, 2.0], np.repeat(np.sin(grid.nodes)[:, None], 2, axis=1)
    )
    assert np.array_equal(shared, per_column)


def test_second_kind_on_graded_grid():
    # graded path: same equation, per-row weights; check the identity row-wise
    grid = TimeGrid.graded(1.0, 24, r=2.0)
    kernel = MemoryKernel.fractional(1.0, 0.5)
    lam = 2.0
    x, scheme = second_kind_solve(kernel.a_moments, grid, lam, 1.0)
    assert x.shape == (25, 1) or x.shape == (25,)
    x = np.atleast_2d(x.T).T
    t = grid.nodes
    for i in (5, 12, 24):
        hi = t[i] - t[:i]
        lo = t[i] - t[1 : i + 1]
        a0, a1 = kernel.a_moments(lo, hi)
        h = hi - lo
        left = (a1 - lo * a0) / h
        right = (hi * a0 - a1) / h
        conv = left @ x[:i, 0] + right @ x[1 : i + 1, 0]
        assert x[i, 0] + lam * conv == pytest.approx(1.0, abs=1e-12)


def test_first_kind_recovers_sonine_pair():
    # k * (1 + m) = 1 for the half-order kernel has the closed form
    # k(t) = 1/sqrt(pi t) - e^t erfc(sqrt t); check at interior nodes
    from scipy.special import erfc

    grid = TimeGrid.uniform(1.0, 512)
    kernel = MemoryKernel.fractional(1.0, 0.5)
    k, diag = first_kind_solve(kernel.a_moments, grid, np.ones_like(grid.nodes))
    assert diag > 0.0
    t = grid.nodes[1:]
    exact = 1.0 / np.sqrt(np.pi * t) - np.exp(t) * erfc(np.sqrt(t))
    err = np.abs(k - exact)
    # cell-value representatives of a steep decreasing k: O(h) with a large
    # constant near the singular end, small by the horizon
    assert float(np.max(err[t >= 0.25])) < 6e-3
    assert err[-1] < 5e-4


@pytest.mark.parametrize(
    "kernel",
    [MemoryKernel.fractional(1.0, 0.5), MemoryKernel.exponential(2.0, 3.0)],
    ids=["fractional", "exponential"],
)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000])
@pytest.mark.parametrize("m", [1, 7])
def test_toeplitz_fast_paths_match_row_loops(kernel, n, m):
    # block edges at 64 rows: one leaf, a leaf boundary, and deep recursion
    rng = np.random.default_rng(n * 10 + m)
    w = rectangle_weights(kernel, n)
    lams = np.sort(rng.uniform(0.5, 5e4, m))
    rhs = 1.0 + rng.standard_normal(n + 1)
    fast = _uniform_second_kind(w, lams, rhs, trap=False)
    ref = rectangle_loop(w, lams, rhs)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
    a0 = w.cell
    k = _toeplitz_solve(a0, 1.0, a0[0], rhs.copy())[1:]
    k_ref = first_kind_loop(a0, rhs)
    assert np.max(np.abs(k - k_ref)) <= 1e-12 * np.max(np.abs(k_ref))


def test_first_kind_solve_matches_substitution():
    grid = TimeGrid.uniform(2.0, 300)
    kernel = MemoryKernel.fractional(1.0, 0.4)
    a0 = lag_weights(kernel.a_moments, grid).cell
    rhs = np.cos(grid.nodes)
    k, diag = first_kind_solve(kernel.a_moments, grid, rhs)
    assert diag == a0[0]
    ref = first_kind_loop(a0, rhs)
    assert np.max(np.abs(k - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rectangle_solves_the_discrete_equation():
    # x_i + lam * sum_{j=1..i} A0[i-j] x_j = rhs_i: right-endpoint cell sums,
    # x_0 enters nowhere; 300 rows run through the blocked recursion
    grid = TimeGrid.uniform(1.0, 300)
    kernel = MemoryKernel.fractional(1.0, 0.5)
    lams = np.array([3.0, 250.0, 2e4])
    rhs = np.exp(-grid.nodes)
    x, scheme = second_kind_solve(kernel.a_moments, grid, lams, rhs, scheme="rectangle")
    assert scheme == "rectangle"
    a0 = lag_weights(kernel.a_moments, grid).cell
    cell_sums = np.array([a0[i - 1 :: -1] @ x[1 : i + 1] for i in range(1, 301)])
    residual = x[1:] + lams * cell_sums - rhs[1:, None]
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)
    np.testing.assert_array_equal(x[0], rhs[0])


@st.composite
def nonincreasing_tables(draw):
    # nonnegative, nonincreasing samples at increasing breakpoints t > 0
    size = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    drops = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    return MemoryKernel.tabulated(np.cumsum(gaps), np.cumsum(drops[::-1])[::-1])


ascending_lams = st.lists(st.floats(1e-2, 1e5), min_size=1, max_size=6).map(np.sort)


@given(
    kernel=nonincreasing_tables(),
    lams=ascending_lams,
    n=st.integers(2, 400),
    horizon=st.floats(0.1, 4.0),
)
def test_rectangle_fast_path_and_positivity(kernel, lams, n, horizon):
    # the step coefficients c = (1 + lam*A0[0], lam*A0[1], ...) of a
    # nonincreasing kernel are nonincreasing, so (1 - z) * sum_k c_k z^k has
    # one positive coefficient and the rest <= 0: its reciprocal, the
    # generating function of omega_1, omega_2, ..., has coefficients >= 0;
    # and omega_i <= 1 / c_0 because every past term enters with a minus
    grid = TimeGrid.uniform(horizon, n)
    omega, _ = second_kind_solve(kernel.a_moments, grid, lams, 1.0, scheme="rectangle")
    ref = rectangle_loop(lag_weights(kernel.a_moments, grid), lams, np.ones(n + 1))
    assert np.max(np.abs(omega - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert omega.min() >= -1e-12
    assert omega.max() <= 1.0


@given(
    weights=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
    decays=st.lists(st.floats(0.0, 20.0), min_size=3, max_size=3),
    lams=ascending_lams,
    n=st.integers(2, 400),
    horizon=st.floats(0.1, 4.0),
)
def test_rectangle_relaxation_is_monotone(weights, decays, lams, n, horizon):
    # m sampled on the grid nodes from a mixture of exponentials: 1 + m is
    # log-convex there, so are its cell masses, and by Kaluza's theorem the
    # rectangle rule's omega is nonincreasing in t and in lambda.  (Breaks
    # off the grid add linear pieces, which are not log-convex; a table
    # with a kink can make omega rebound, see verify_relaxation.)
    grid = TimeGrid.uniform(horizon, n)
    t = grid.nodes
    samples = sum(w * np.exp(-d * t) for w, d in zip(weights, decays))
    # a table starts at t > 0; a first break at 1e-300 stands in for t = 0
    kernel = MemoryKernel.tabulated(np.concatenate([[1e-300], t[1:]]), samples)
    omega, _ = second_kind_solve(kernel.a_moments, grid, lams, 1.0, scheme="rectangle")
    assert np.diff(omega, axis=0).max() <= 1e-12
    if lams.size > 1:
        assert np.diff(omega, axis=1).max() <= 1e-12
