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
``fftconvolve`` (numpy rfft/irfft along axis 0) is the one FFT convolution;
every lag convolution below is assembled from the two.

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
  recursion, or a blocked matrix product) moves the omega difference
  quotients that ``certify_completely_positive`` reports at dt = 1/8192 by
  2-3e-8 relative, beyond the 1e-8 that ``perfbench/reference.json`` allows.
* graded grids, both rules and the first-kind solve: O(M N^2).  The lag
  cells t_i - t_j differ from row to row, so the system is not Toeplitz and
  every row needs its own weights.
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


def fftconvolve(a, b, start: int = 0, stop: Optional[int] = None):
    """Rows start..stop-1 of the full linear convolution of a and b along axis 0.

    A 1-d operand next to a 2-d one acts as a column shared by every column
    of the other; two 1-d operands give a 1-d result.  The circular length
    is the shortest 5-smooth one that keeps the requested rows free of
    wrap-around, so a window that skips the first rows (the middle product
    of ``_toeplitz_solve``) costs one transform of about len(a) rows.

    a may also be a tuple of equally long kernels: b is then transformed
    once, and a list of windows comes back, one per kernel.  Each product
    takes the kernel's spectrum first; numpy's complex multiply is not
    bitwise commutative, so this order is part of the result.
    """
    kernels = [np.asarray(k, dtype=float) for k in (a if isinstance(a, tuple) else (a,))]
    b = np.asarray(b, dtype=float)
    if any(k.ndim > b.ndim for k in kernels):
        b = b[:, None]
    kernels = [k[:, None] if k.ndim < b.ndim else k for k in kernels]
    n = kernels[0].shape[0] + b.shape[0] - 1
    stop = n if stop is None else stop
    size = _fast_length(max(n - start, stop))
    b_hat = np.fft.rfft(b, size, axis=0)
    out = []
    for i, k in enumerate(kernels):
        # the last product overwrites b_hat where the shapes allow (same
        # bits), and each product is dropped before the next kernel's
        fits = np.broadcast_shapes(k.shape[1:], b.shape[1:]) == b.shape[1:]
        into = b_hat if fits and i == len(kernels) - 1 else None
        spectrum = np.multiply(np.fft.rfft(k, size, axis=0), b_hat, out=into)
        out.append(np.fft.irfft(spectrum, size, axis=0)[start:stop])
        del spectrum
    return out if isinstance(a, tuple) else out[0]


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
    The left and right weight columns share one transform of phi (one
    ``fftconvolve`` call with two kernels), with the bits of two separate
    convolutions.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0] - 1
    v = weights.right[:n]
    out = np.zeros_like(phi)
    # one transform of phi serves both weight columns
    older, newer = fftconvolve((weights.left[:n], v), phi)
    out[1:] = older[:n] + newer[1 : n + 1]
    # the full convolution (right * phi)_i picks up the k = i term
    # right_i * phi_0, which lies outside the i-1 lag cells; remove it
    out[1:n] -= np.multiply.outer(v[1:], phi[0])
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
    x[mid:hi] -= scale * fftconvolve(
        c[1 : hi - lo], x[lo:mid], mid - lo - 1, hi - lo - 1
    )
    return _toeplitz_solve(c, scale, denom, x, mid, hi)


def _uniform_second_kind(
    weights: LagWeights, lams: np.ndarray, rhs: np.ndarray, trap: bool
) -> np.ndarray:
    """Implicit steps on a uniform grid.

    The right-endpoint sums of the rectangle rule start at x_1, so its rows
    1..N are one Toeplitz solve; the trapezoid rule keeps its row loop
    (module docstring).
    """
    x = np.repeat(rhs[:, None], lams.size, axis=1)
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
        hi = t[i] - t[:i]
        lo = t[i] - t[1 : i + 1]
        if trap:
            left, right = endpoint_weights(moments, lo, hi, steps[:i])
            past = left @ x[:i]
            if i > 1:
                past = past + right[:-1] @ x[1:i]
            x[i] = (rhs[i] - lams * past) / (1.0 + lams * right[-1])
        else:
            a0, _ = moments(lo, hi)
            past = a0[:-1] @ x[1:i] if i > 1 else 0.0
            x[i] = (rhs[i] - lams * past) / (1.0 + lams * a0[-1])
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
    rhs : scalar or array of shape (N+1,)
        Right-hand side samples on the grid nodes.
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


def rectangle_convolve(kernel_samples: np.ndarray, phi: np.ndarray, dt: float) -> np.ndarray:
    """Right-endpoint lag convolution on a uniform grid.

    (k * phi)(t_i) ~ dt * sum_{j=1..i} k_j phi_{i-j}.  The newest sample of
    phi is weighted by k at one full step, never by k(0), which keeps the
    response of a strongly damped column at the size of its true convolution
    mass instead of dt/2 (the trapezoid rule's newest weight).
    """
    G = np.asarray(phi, dtype=float)
    n = G.shape[0] - 1
    out = np.zeros_like(G)
    if n >= 1:
        out[1:] = dt * fftconvolve(np.asarray(kernel_samples)[1:], G)[:n]
    return out


def trapezoid_convolve(kernel_samples: np.ndarray, phi: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule lag convolution on a uniform grid.

    (k * phi)(t_i) ~ dt * (sum_{j=0..i} k_{i-j} phi_j - k_i phi_0 / 2
    - k_0 phi_i / 2).  Both factors are nodal samples; columns are modes.
    """
    K = np.asarray(kernel_samples, dtype=float)
    G = np.asarray(phi, dtype=float)
    if K.ndim < G.ndim:
        K = K[:, None]
    full = fftconvolve(K, G)[: G.shape[0]]
    out = dt * (full - 0.5 * K * G[0] - 0.5 * K[0] * G)
    out[0] = 0.0
    return out
