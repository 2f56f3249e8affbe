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

Every uniform solve is a lower-triangular Toeplitz system p(Z) x = r in the
shift Z (the trapezoid rule once x_0 moves to the right-hand side), so x =
g * r for the first N coefficients g of the power series 1/p, found by Newton
doubling (``_reciprocal_series``): O(M N log N) for N steps and M columns.

Every second-kind path transforms each column on its own, so the
columns of one ``second_kind_solve`` call, each with its own right-hand
side, keep the bits of single-column calls; ``certify_completely_positive``
relies on that to solve its two equations at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .grids import TimeGrid

__all__ = [
    "endpoint_weights",
    "LagWeights",
    "lag_weights",
    "product_convolve",
    "scheme_decision",
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
# 1.4x slower than blocks of 4.  The budget decides for the short transforms
# of the early Newton doublings: an 8192-step, 32-column relaxation table
# took 29-37 ms with it, against 36-41, 32-35, 27-31 and 31-36 ms with fixed
# blocks of 4, 8, 16 and 32 columns (2-vCPU host, fastest to median of 9)
_FFT_BLOCK = 1 << 15
_FFT_MIN_COLUMNS = 4

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
    first rows (a middle product of ``_toeplitz_solve``) costs one
    transform of about len(a) rows.

    The columns run in blocks of about _FFT_BLOCK samples, never fewer than
    _FFT_MIN_COLUMNS columns: each block's contiguous (columns, rows) copy is
    transformed (numpy's FFT reads it far faster than strided columns, with
    the bits of transforms along axis 0), multiplied in place and transformed
    back into its window of out, so no temporary outgrows a block, and out
    may be a 2-d operand itself.  Each product takes a's spectrum first;
    numpy's complex multiply is not bitwise commutative, so this order is
    part of the result.
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


def _reciprocal_series(c: np.ndarray, scale, denom, g: np.ndarray) -> np.ndarray:
    """The first N = len(c) coefficients of 1/p, p(z) = denom + scale *
    sum_{k>=1} c[k] z^k, written into g (N rows; scale and denom broadcast
    over its columns), which is returned.

    Newton doubling (Kung, Numer. Math. 22, 1974): if g holds m of them, p g
    = 1 + z^m h + O(z^2m), and the next m are -(g * h).  h is a middle
    product of c with g, which c[0] never enters, so each doubling is two
    ``fftconvolve`` calls.
    """
    n = c.size
    g[0] = 1.0 / denom
    m = 1
    while m < n:
        stop = min(2 * m, n)
        h = fftconvolve(c[:stop], g[:m], np.empty_like(g[m:stop]), m)
        h *= -scale
        fftconvolve(g[:m], h, g[m:stop])
        m = stop
    return g


def _toeplitz_solve(c: np.ndarray, scale, denom, rhs) -> np.ndarray:
    """Rows 0..N (N = len(c)) of the solution of

        denom * x_i + scale * sum_{j=1}^{i-1} c[i-j] x_j = r_i,   i = 1..N,

    with x_0 = r_0; scale and denom broadcast over the columns, and an (N+1,)
    r is shared by them.  Rows 1..N are g * r[1:], g the first N coefficients
    of 1/p (``_reciprocal_series``); a scalar r, as in every rectangle
    relaxation table, makes that the running sum r * cumsum(g).
    """
    x = np.empty((c.size + 1,) + np.broadcast(scale, denom).shape)
    g = _reciprocal_series(c, scale, denom, x[1:])
    if np.ndim(rhs) == 0:
        np.cumsum(g, axis=0, out=g)
        g *= rhs
        x[0] = rhs
    else:
        fftconvolve(g, rhs[1:], g)
        x[0] = rhs[0]
    return x


def scheme_decision(moments: Moments, grid: TimeGrid, lam) -> Dict[str, object]:
    """The rule ``second_kind_solve`` picks for lam when none is forced, with
    the numbers behind it.

    The trapezoid step loses positivity once lam times the newest lag cell's
    left weight passes 1 (module docstring), so it is kept only when max(lam)
    times that weight stays within STIFF_THRESHOLD; otherwise every column
    takes the rectangle rule.  The weight is that of the first cell [0, dt].
    """
    dt = np.array([grid.dt])
    left, _ = endpoint_weights(moments, np.zeros_like(dt), dt, dt)
    lam_max, weight = float(np.max(lam)), float(left[0])
    product = lam_max * weight
    return {
        "lambda_max": lam_max,
        "left_weight": weight,
        "product": product,
        "threshold": STIFF_THRESHOLD,
        "scheme": "trapezoid" if product <= STIFF_THRESHOLD else "rectangle",
    }


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
    lam : positive scalar or nonempty 1-d array
        One column is solved per value, sharing the weight table.  Every
        value must be finite and > 0, or ValueError names lam.
    rhs : scalar, array of shape (N+1,), or array of shape (N+1, len(lam))
        Right-hand side samples on the grid nodes, shared by every column,
        or one column of samples per lam value.  Every path transforms
        each column on its own, so a column of a batched call has the bits of
        its own single-column call.
    scheme : None | "trapezoid" | "rectangle"
        None resolves automatically through ``scheme_decision``.  Forcing
        "trapezoid" on a stiff batch gives damped ringing on the stiff
        columns (useful when those columns are known to carry zero data);
        forcing "rectangle" trades accuracy for unconditional positivity.

    Cost is O(len(lam) N log N) for either rule, one Toeplitz solve (module
    docstring).  In the rectangle rule a scalar rhs is a running sum and an
    array one FFT convolution, so a column of ones rounds unlike rhs = 1.0.

    Returns
    -------
    x : ndarray, shape (N+1,) for scalar lam else (N+1, len(lam))
    scheme : "trapezoid" | "rectangle"
        The rule used for every column of this call.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.size == 0 or not np.all(np.isfinite(lams) & (lams > 0.0)):
        raise ValueError("lam must be one or more finite positive values")
    if scheme not in (None, "trapezoid", "rectangle"):
        raise ValueError("scheme must be None, 'trapezoid' or 'rectangle'")
    # a scalar stays 0-d: the rectangle rule's running sum (_toeplitz_solve)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim and rhs.shape != (grid.nodes.size, lams.size)[: rhs.ndim]:
        raise ValueError("rhs needs N+1 samples, shared or one column per lam")
    weights = lag_weights(moments, grid)
    if scheme is None:
        # one scheme for the whole call so columns stay mutually comparable
        # (mixing rules breaks monotonicity across lambda at the switch point)
        scheme = scheme_decision(moments, grid, lams)["scheme"]
    if scheme == "trapezoid":
        # x_0 moves to the right-hand side, where row i loses lam*u[i-1]*x_0;
        # rows 1..N are then Toeplitz, c[k] = u[k-1] + v[k] for k >= 1.  The
        # table of products is freed before the solve allocates its result
        u, v = weights.left, weights.right
        shifted = np.empty((grid.nodes.size, lams.size))
        shifted[:] = rhs[:, None] if rhs.ndim == 1 else rhs
        shifted[1:] -= np.multiply.outer(u, lams * shifted[0])
        rhs = shifted
        c = np.concatenate((v[:1], u[:-1] + v[1:]))
    else:
        # right-endpoint sums start at x_1: rows 1..N are Toeplitz as they are
        c = weights.cell
    x = _toeplitz_solve(c, lams, 1.0 + lams * c[0], rhs)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return x[:, 0], scheme
    return x, scheme


def first_kind_solve(moments: Moments, grid: TimeGrid, rhs) -> Tuple[np.ndarray, float]:
    """Solve (a conv k)(t_i) = rhs_i for piecewise-constant k by substitution.

    k is constant on each cell (t_{j-1}, t_j]; the value is attributed to the
    right endpoint, so the returned samples live on nodes[1:].  Returns the
    samples and the diagonal weight (conditioning indicator).

    The system is Toeplitz, O(N log N) (``_toeplitz_solve``; a scalar rhs is
    a running sum).
    """
    t = grid.nodes
    rhs_arr = np.broadcast_to(np.asarray(rhs, dtype=float), t.shape)
    a0, _ = moments(t[:-1], t[1:])
    diag = float(a0[0])
    if diag <= 0.0:
        raise ValueError("first-kind diagonal weight vanished")
    k = _toeplitz_solve(a0, 1.0, diag, float(rhs) if np.ndim(rhs) == 0 else rhs_arr)
    return k[1:], diag


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
    # elementwise: row blocks keep the bits, and temporaries at a block
    step = max(1, _FFT_BLOCK // (out.size // out.shape[0]))
    for lo in range(0, out.shape[0], step):
        rows = slice(lo, lo + step)
        out[rows] -= 0.5 * K[rows] * G[0]
        out[rows] -= 0.5 * K[0] * G[rows]
        out[rows] *= dt
    out[0] = 0.0
    return out
