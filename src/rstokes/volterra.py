"""Product-integration machinery for Volterra convolution equations.

Given a kernel k with exact cell moments

    A0 = int_a^b k(s) ds,    A1 = int_a^b s * k(s) ds

and data phi treated as piecewise linear on the grid, each cell
[t_j, t_{j+1}] of the convolution (k * phi)(t_i) contributes with endpoint
weights

    left  = (A1 - a*A0) / h   on phi_j
    right = (b*A0 - A1) / h   on phi_{j+1}

over the lag cell [a, b] = [t_i - t_{j+1}, t_i - t_j], h = b - a.  Both are
integrals of k against nonnegative hat functions, hence >= 0 for k >= 0.

``endpoint_weights`` is the one place these two formulas are written, and
``fftconvolve`` (numpy rfft/irfft along the rows, a block of columns at a
time, written into the caller's array) is the one FFT convolution; every lag
convolution below is assembled from the two.

Second-kind equations x + lam*(a conv x) = rhs are stepped implicitly.  The
piecewise-linear (trapezoid) rule is second order but loses positivity once
lam * left[0] > 1 (the same mechanism as Crank-Nicolson ringing); those stiff
columns switch to the piecewise-constant right-endpoint rule, which is first
order but preserves positivity for nonincreasing kernels (and
monotonicity where the kernel is completely positive).

Cost for N steps and M columns:

* uniform rectangle rule and uniform first-kind solve: O(M N log^2 N).
  Both are lower-triangular Toeplitz systems, solved by ``_toeplitz_solve``
  (blocked divide and conquer with FFT middle products).
* uniform trapezoid rule: O(M N^2), a row loop.  It is Toeplitz too once
  x_0 moves to the right-hand side, but any reordering of its sums (this
  recursion, or a blocked matrix product) moves two seed-0 rows of
  ``perfbench/reference.json`` past what that file allows.  The omega
  difference quotients that ``certify_completely_positive`` reports at
  dt = 1/8192 move by 2-3e-8 relative, beyond the 1e-8 allowed.  And
  ``p_recovered`` near p = 0 moves through the benchmark's generator, not
  through the reconstruction: ``forward_simulate`` moves psi by up to
  2.2e-16, and the finite-difference psi' amplifies that to 1.0e-13 at row
  372, against an allowance of 1.74e-14.  The reconstruction alone on the
  Toeplitz path moves no p_recovered row by more than 0.0032 of its
  allowance.  The loop itself stays as written; the alternatives measured
  on a 2-vCPU host (8192 rows, 6 columns, fractional kernel, the w-equation
  of ``certify_completely_positive``) either change its bits or are
  slower:

  - ``u[i-1::-1] @ x[:i]`` reads u with a negative stride, so numpy does
    not call BLAS and sums each column on its own, oldest node first.  A
    contiguous copy of u goes to BLAS: 0.31 s against 0.48 s, but w moves
    by 6e-15 relative, and the certificate's r = diff(w)/dt at theta = 10
    by 1.4e-8 relative, past the 1e-8 of the reference check.
  - A vectorized "push" form (each solved row added into running sums of
    the rows after it) and an axis-0 ``add.reduce`` form keep the bits,
    but ran 3.0x and 4.7x slower.
  - Two threads over the columns, three each, ran slower than one (0.58 to
    0.66 s against 0.43 to 0.51 s): the per-row Python work holds the GIL.
* graded grids, both rules and the first-kind solve: O(M N^2).  The lag
  cells t_i - t_j differ from row to row, so the system is not Toeplitz and
  every row needs its own weights.  The second-kind rows read their weights
  backwards as well, so numpy sums each column on its own there too.

Every second-kind path sums each column on its own, so the columns of one
``second_kind_solve`` call, each with its own right-hand side, keep the bits
of single-column calls; ``certify_completely_positive`` relies on that to
solve its two equations at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grids import TimeGrid

__all__ = [
    "endpoint_weights",
    "LagWeights",
    "lag_weights",
    "product_convolve",
    "stiffness_scheme",
    "second_kind_solve",
    "first_kind_solve",
    "trapezoid_convolve",
    "rectangle_convolve",
]

Moments = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]

STIFF_THRESHOLD = 0.9

# samples per contiguous (columns, rows) block that fftconvolve transforms at
# once (256 KiB of doubles), and the fewest columns a block may hold.  The
# floor decides for long transforms: at 65537 x 256, one-column blocks ran
# 1.4x slower than blocks of 4.  The budget decides for the short middle
# products of _toeplitz_solve: an 8192-step, 32-column relaxation table took
# 80 ms with it, against 104, 94 and 88 ms with fixed blocks of 4, 8 and 16
_FFT_BLOCK = 1 << 15
_FFT_MIN_COLUMNS = 4

# rows per leaf of _toeplitz_solve (row loop below, FFT middle products above);
# of 16..256, 64 was fastest for 8192 steps x 32 columns
_TOEPLITZ_BLOCK = 64


def _fast_length(n: int) -> int:
    """Smallest 2**a 3**b 5**c >= n (the length scipy.fft.next_fast_len picks
    for real transforms)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << max(-(-n // p) - 1, 0).bit_length())
            p *= 3
        p5 *= 5
    return best


def fftconvolve(a, b, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Rows start..start+len(out)-1 of the full linear convolution of a and b
    along axis 0, written into out, which is returned.

    Two 1-d operands give a 1-d out.  Next to a 2-d operand, which has out's
    columns, a 1-d one is a column shared by every column of out, and is
    transformed once.  The circular length is the shortest 5-smooth one that
    keeps the requested rows free of wrap-around, so a window that skips the
    first rows (the middle product of ``_toeplitz_solve``) costs one
    transform of about len(a) rows.

    The columns run in blocks of about _FFT_BLOCK samples, never fewer than
    _FFT_MIN_COLUMNS columns: each block's contiguous (columns, rows) copy is
    transformed (numpy's FFT reads it far faster than strided columns, with
    the bits of transforms along axis 0), multiplied in place and transformed
    back into its window of out, so no temporary outgrows a block.  Each
    product takes a's spectrum first; numpy's complex multiply is not bitwise
    commutative, so this order is part of the result.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out.ndim == 1:
        fftconvolve(a[:, None], b[:, None], out[:, None], start)
        return out
    stop = start + out.shape[0]
    size = _fast_length(max(a.shape[0] + b.shape[0] - 1 - start, stop))
    shared = [np.fft.rfft(x, size) if x.ndim == 1 else None for x in (a, b)]
    step = max(_FFT_MIN_COLUMNS, _FFT_BLOCK // size)
    for lo in range(0, out.shape[1], step):
        cols = slice(lo, lo + step)
        a_hat, b_hat = (
            np.fft.rfft(np.ascontiguousarray(x[:, cols].T), size) if x_hat is None else x_hat
            for x, x_hat in zip((a, b), shared)
        )
        # the product goes into a spectrum of this block's own
        spectrum = a_hat if shared[1] is not None else b_hat
        np.multiply(a_hat, b_hat, out=spectrum)
        out[:, cols] = np.fft.irfft(spectrum, size)[:, start:stop].T
    return out


def endpoint_weights(moments: Moments, lo, hi, h) -> Tuple[np.ndarray, np.ndarray]:
    """(left, right) weights of the cells [lo, hi] of width h (module docstring)."""
    a0, a1 = moments(lo, hi)
    return (a1 - lo * a0) / h, (hi * a0 - a1) / h


@dataclass(frozen=True)
class LagWeights:
    """Per-lag-cell endpoint weights on a uniform grid.

    left[k] multiplies phi at the older node (lag cell k = i - j - 1 maps to
    phi_{i-1-k}), right[k] the newer one (phi_{i-k}).
    """

    left: np.ndarray
    right: np.ndarray

    @property
    def cell(self) -> np.ndarray:
        """Plain cell masses A0 (the piecewise-constant rule's weights)."""
        return self.left + self.right


def lag_weights(moments: Moments, grid: TimeGrid) -> LagWeights:
    if not grid.is_uniform:
        raise ValueError("lag weights require a uniform grid")
    edges = grid.nodes
    return LagWeights(*endpoint_weights(moments, edges[:-1], edges[1:], grid.dt))


def product_convolve(weights: LagWeights, phi: np.ndarray) -> np.ndarray:
    """(k * phi)(t_i) at every node for piecewise-linear phi (uniform grid).

    phi has shape (N+1,) or (N+1, M); columns are convolved independently.
    Node m back from t_i carries left[m-1] + right[m], so rows 1..N are one
    convolution of phi with that node-weight column.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0] - 1
    v = weights.right[:n]
    node = np.zeros(n + 1)
    node[:n] = v
    node[1:] += weights.left[:n]
    out = np.zeros_like(phi)
    fftconvolve(node, phi, out[1:], 1)
    # the full convolution picks up the node-i term right_i * phi_0, which
    # lies outside the i-1 lag cells of rows i < N; remove it one column at
    # a time, so no temporary is as large as the table
    for col in np.ndindex(phi.shape[1:]):
        out[(slice(1, n), *col)] -= v[1:] * phi[(0, *col)]
    return out


def _toeplitz_solve(
    c: np.ndarray, scale, denom, x: np.ndarray, lo: int = 1, hi: Optional[int] = None
) -> np.ndarray:
    """Overwrite rows lo..hi-1 of x, which hold r on entry, with the solution of

        denom * x_i + scale * sum_{j=lo}^{i-1} c[i-j] x_j = r_i

    (lower-triangular Toeplitz; columns of x are independent, scale and
    denom broadcast over them).  Divide and conquer after Hairer, Lubich &
    Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): blocks of at most
    _TOEPLITZ_BLOCK rows run the row loop, and each solved left half is
    subtracted from the right half's r by one FFT middle product, so n rows
    cost O(n log^2 n) per column.
    """
    if hi is None:
        hi = x.shape[0]
    if hi - lo <= _TOEPLITZ_BLOCK:
        for i in range(lo, hi):
            if i > lo:
                x[i] -= scale * (c[i - lo : 0 : -1] @ x[lo:i])
            x[i] /= denom
        return x
    mid = (lo + hi) // 2
    _toeplitz_solve(c, scale, denom, x, lo, mid)
    # lags 1..hi-lo-1 from rows lo..mid-1 onto rows mid..hi-1
    past = fftconvolve(c[1 : hi - lo], x[lo:mid], np.empty_like(x[mid:hi]), mid - lo - 1)
    past *= scale
    x[mid:hi] -= past
    return _toeplitz_solve(c, scale, denom, x, mid, hi)


def _uniform_second_kind(
    weights: LagWeights, lams: np.ndarray, rhs: np.ndarray, trap: bool
) -> np.ndarray:
    """Implicit steps on a uniform grid.

    The right-endpoint sums of the rectangle rule start at x_1, so its rows
    1..N are one Toeplitz solve; the trapezoid rule keeps its row loop
    (module docstring).
    """
    x = np.repeat(rhs[:, None], lams.size, axis=1) if rhs.ndim == 1 else rhs.copy()
    if not trap:
        a0 = weights.cell
        return _toeplitz_solve(a0, lams, 1.0 + lams * a0[0], x)
    u, v = weights.left, weights.right
    denom = 1.0 + lams * v[0]
    for i in range(1, u.size + 1):
        past = u[i - 1 :: -1] @ x[:i]
        if i > 1:
            past = past + v[i - 1 : 0 : -1] @ x[1:i]
        x[i] = (rhs[i] - lams * past) / denom
    return x


def _graded_second_kind(
    moments: Moments, grid: TimeGrid, lams: np.ndarray, rhs: np.ndarray, trap: bool
) -> np.ndarray:
    t = grid.nodes
    steps = grid.steps()
    n = grid.n_steps
    x = np.zeros((n + 1, lams.size))
    x[0] = rhs[0]
    for i in range(1, n + 1):
        # lag cells newest first, as on a uniform grid: cell k is
        # [t_i - t_{i-k}, t_i - t_{i-1-k}], read backwards by the dot products
        # (a negative stride, so numpy sums each column on its own)
        hi = t[i] - t[i - 1 :: -1]
        lo = t[i] - t[i:0:-1]
        if trap:
            left, right = endpoint_weights(moments, lo, hi, steps[i - 1 :: -1])
            past = left[::-1] @ x[:i]
            if i > 1:
                past = past + right[:0:-1] @ x[1:i]
            x[i] = (rhs[i] - lams * past) / (1.0 + lams * right[0])
        else:
            a0, _ = moments(lo, hi)
            past = a0[:0:-1] @ x[1:i] if i > 1 else 0.0
            x[i] = (rhs[i] - lams * past) / (1.0 + lams * a0[0])
    return x


def stiffness_scheme(moments: Moments, grid: TimeGrid, lam) -> str:
    """The rule ``second_kind_solve`` picks for lam when none is forced.

    The trapezoid step loses positivity once lam times the newest lag cell's
    left weight passes 1 (module docstring), so it is kept only when max(lam)
    times that weight stays within STIFF_THRESHOLD; otherwise every column
    takes the rectangle rule.  The weight is that of the first cell [0, dt]
    on a uniform grid, and the largest over the rows of a graded one.
    """
    steps = np.array([grid.dt]) if grid.is_uniform else grid.steps()
    left, _ = endpoint_weights(moments, np.zeros_like(steps), steps, steps)
    return "trapezoid" if np.max(lam) * np.max(left) <= STIFF_THRESHOLD else "rectangle"


def second_kind_solve(
    moments: Moments,
    grid: TimeGrid,
    lam,
    rhs,
    scheme: Optional[str] = None,
) -> Tuple[np.ndarray, str]:
    """Solve x + lam * (a conv x) = rhs by implicit product integration.

    Parameters
    ----------
    moments : callable (lo, hi) -> (A0, A1)
        Exact cell moments of the kernel a.
    lam : positive scalar or 1-d array
        One column is solved per value, sharing the weight table.
    rhs : scalar, array of shape (N+1,), or array of shape (N+1, len(lam))
        Right-hand side samples on the grid nodes, shared by every column,
        or one column of samples per lam value.  Every path sums each
        column on its own, so a column of a batched call has the bits of
        its own single-column call.
    scheme : None | "trapezoid" | "rectangle"
        None resolves automatically through ``stiffness_scheme``.  Forcing
        "trapezoid" on a stiff batch gives damped ringing on the stiff
        columns (useful when those columns are known to carry zero data);
        forcing "rectangle" trades accuracy for unconditional positivity.

    Cost is O(len(lam) N log^2 N) for the rectangle rule on a uniform grid
    and O(len(lam) N^2) for the trapezoid rule or a graded grid (see the
    module docstring for why).

    Returns
    -------
    x : ndarray, shape (N+1,) for scalar lam else (N+1, len(lam))
    scheme : "trapezoid" | "rectangle"
        The rule used for every column of this call.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lams <= 0.0):
        raise ValueError("lam must be positive")
    if scheme not in (None, "trapezoid", "rectangle"):
        raise ValueError("scheme must be None, 'trapezoid' or 'rectangle'")
    if np.ndim(rhs) == 2:
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape != (grid.nodes.size, lams.size):
            raise ValueError("a 2-d rhs needs one column of N+1 samples per lam")
    else:
        rhs_arr = np.broadcast_to(np.asarray(rhs, dtype=float), grid.nodes.shape).astype(float)
    weights = lag_weights(moments, grid) if grid.is_uniform else None
    if scheme is None:
        # one scheme for the whole call so columns stay mutually comparable
        # (mixing rules breaks monotonicity across lambda at the switch point)
        scheme = stiffness_scheme(moments, grid, lams)
    trap = scheme == "trapezoid"
    if weights is not None:
        x = _uniform_second_kind(weights, lams, rhs_arr, trap)
    else:
        x = _graded_second_kind(moments, grid, lams, rhs_arr, trap)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return x[:, 0], scheme
    return x, scheme


def first_kind_solve(moments: Moments, grid: TimeGrid, rhs) -> Tuple[np.ndarray, float]:
    """Solve (a conv k)(t_i) = rhs_i for piecewise-constant k by substitution.

    k is constant on each cell (t_{j-1}, t_j]; the value is attributed to the
    right endpoint, so the returned samples live on nodes[1:].  Returns the
    samples and the smallest diagonal weight (conditioning indicator).

    On a uniform grid the system is Toeplitz and costs O(N log^2 N)
    (``_toeplitz_solve``); a graded grid is substituted row by row, O(N^2).
    """
    t = grid.nodes
    n = grid.n_steps
    rhs_arr = np.broadcast_to(np.asarray(rhs, dtype=float), t.shape)
    if grid.is_uniform:
        a0, _ = moments(t[:-1], t[1:])
        diag = float(a0[0])
        if diag <= 0.0:
            raise ValueError("first-kind diagonal weight vanished")
        k = _toeplitz_solve(a0, 1.0, diag, rhs_arr.copy())
        return k[1:], diag
    k = np.zeros(n + 1)
    min_diag = np.inf
    for i in range(1, n + 1):
        hi = t[i] - t[:i]
        lo = t[i] - t[1 : i + 1]
        a0, _ = moments(lo, hi)
        diag = float(a0[-1])
        min_diag = min(min_diag, diag)
        if diag <= 0.0:
            raise ValueError("first-kind diagonal weight vanished")
        past = a0[:-1] @ k[1:i] if i > 1 else 0.0
        k[i] = (rhs_arr[i] - past) / diag
    return k[1:], float(min_diag)


def _lag_shape(K: np.ndarray, G: np.ndarray) -> Tuple[int, ...]:
    # phi's rows, and the columns of whichever factor has them
    return G.shape[:1] + (K.shape[1:] or G.shape[1:])


def rectangle_convolve(kernel_samples: np.ndarray, phi: np.ndarray, dt: float) -> np.ndarray:
    """Right-endpoint lag convolution on a uniform grid.

    (k * phi)(t_i) ~ dt * sum_{j=1..i} k_j phi_{i-j}.  The newest sample of
    phi is weighted by k at one full step, never by k(0), which keeps the
    response of a strongly damped column at the size of its true convolution
    mass instead of dt/2 (the trapezoid rule's newest weight).  A 1-d factor
    next to a 2-d one is shared by every column of the other.
    """
    K = np.asarray(kernel_samples, dtype=float)
    G = np.asarray(phi, dtype=float)
    out = np.zeros(_lag_shape(K, G))
    if G.shape[0] > 1:
        fftconvolve(K[1:], G, out[1:])
        out[1:] *= dt
    return out


def trapezoid_convolve(kernel_samples: np.ndarray, phi: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule lag convolution on a uniform grid.

    (k * phi)(t_i) ~ dt * (sum_{j=0..i} k_{i-j} phi_j - k_i phi_0 / 2
    - k_0 phi_i / 2).  Both factors are nodal samples; columns are modes,
    and a 1-d factor next to a 2-d one is shared by every column of the
    other.
    """
    K = np.asarray(kernel_samples, dtype=float)
    G = np.asarray(phi, dtype=float)
    out = fftconvolve(K, G, np.empty(_lag_shape(K, G)))
    if out.ndim == 2:
        # a shared factor as a column, for the end corrections
        K, G = K.reshape(K.shape[0], -1), G.reshape(G.shape[0], -1)
    out -= 0.5 * K * G[0]
    out -= 0.5 * K[0] * G
    out *= dt
    out[0] = 0.0
    return out
