"""Dirichlet sine eigenbases on interval and rectangle domains.

Fields are coefficient vectors in the orthonormal eigenbasis of the negative
Laplacian; Hilbert-scale norms and gradient pairings are diagonal.
Collocation uses 2N+1 equispaced interior nodes per axis, which makes the
discrete sine transform an exact quadrature for products of basis functions.

Every mode is a product of one sine per axis, so a basis keeps one table per
axis: the normalized sines (and their derivatives) of indices 1..J_a at that
axis's nodes, J_a being the largest index of the axis among the modes.
Synthesis at the nodes and projection scatter the coefficients into a
(rows, J_1, ..., J_d) index grid and contract it with the tables one axis at
a time.  On a rectangle with n_x x n_y nodes a row costs about
n_x n_y J_y + n_x J_x J_y multiply-adds, against n_x n_y N for a dense
(nodes x modes) matrix: for 64 modes on the square (J = 9 per axis, 16,641
nodes) that is 6.6x fewer, and the tables hold 2 x 129 x 9 values instead of
16,641 x 64.  On an interval the one table is the dense matrix itself, and
the results keep its bits.  No scipy.fft DST is used: importing scipy.fft
costs more than these contractions, and cosines at the sine nodes (the
gradients) are not a DST-I grid anyway.  The dense matrices remain as lazy
attributes for inspection; no solver path builds them.  What a basis does
keep is the projected advection matrix of each direction it is asked for,
n_modes^2 values that a Picard solve would otherwise rebuild every sweep.

Every node has the same weight, so ``project`` scales the coefficients
once.  ``hnorm`` norms the rows of a coefficient table, or of the difference
of two, in row blocks of _BLOCK = 2^15 coefficients (256 KiB a temporary):
the Picard residual, the Holder increments and the CLI's norm columns make
no table-sized temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Interval",
    "Rectangle",
    "SpectralBasis",
    "build_basis",
    "project",
    "synthesize",
    "hnorm",
]


@dataclass(frozen=True)
class Interval:
    length: float

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("interval length must be positive")

    @property
    def ndim(self) -> int:
        return 1


@dataclass(frozen=True)
class Rectangle:
    lx: float
    ly: float

    def __post_init__(self):
        if self.lx <= 0.0 or self.ly <= 0.0:
            raise ValueError("rectangle side lengths must be positive")

    @property
    def ndim(self) -> int:
        return 2


# coefficients per row block of ``_row_slices`` (see the module docstring)
_BLOCK = 1 << 15

# samples per row block of the node-space paths: bounds their working memory
# (2 MiB an array, about one core's L2 cache) while keeping each block one
# large matrix product
_SAMPLE_BUDGET = 1 << 18


def _axis_nodes(length: float, n_modes: int):
    # 2N+1 interior nodes: exact discrete orthogonality for sine modes <= 2N+1
    m = 2 * n_modes + 2
    q = np.arange(1, m)
    return q * length / m, length / m


def _sines(length: float, n, x) -> np.ndarray:
    """sqrt(2/L) sin(n pi x / L), shape (x.size, n.size)."""
    return np.sqrt(2.0 / length) * np.sin(n[None, :] * np.pi * x[:, None] / length)


def _sine_slopes(length: float, n, x) -> np.ndarray:
    """x-derivatives of ``_sines``, same shape."""
    freq = n[None, :] * np.pi / length
    return np.sqrt(2.0 / length) * freq * np.cos(freq * x[:, None])


class SpectralBasis:
    """Eigenpairs sorted ascending by eigenvalue with deterministic ties.

    Interval (0, L): lambda_n = (n pi / L)^2, e_n = sqrt(2/L) sin(n pi x / L).
    Rectangle (0,Lx)x(0,Ly): tensor modes, ties broken lexicographically
    (first axis index first).
    """

    def __init__(self, domain, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        self.domain = domain
        self.n_modes = int(n_modes)
        if isinstance(domain, Interval):
            n = np.arange(1, n_modes + 1)
            self.indices = n
            self.eigenvalues = (n * np.pi / domain.length) ** 2
            xs, wx = _axis_nodes(domain.length, n_modes)
            self.nodes = xs
            self.node_weights = np.full(xs.size, wx)
            axes = [(domain.length, xs, n)]
        elif isinstance(domain, Rectangle):
            j, k = np.meshgrid(
                np.arange(1, n_modes + 1), np.arange(1, n_modes + 1), indexing="ij"
            )
            j, k = j.ravel(), k.ravel()
            lam = (j * np.pi / domain.lx) ** 2 + (k * np.pi / domain.ly) ** 2
            order = np.lexsort((k, j, lam))[:n_modes]
            self.indices = np.stack([j[order], k[order]], axis=1)
            self.eigenvalues = lam[order]
            xs, wx = _axis_nodes(domain.lx, n_modes)
            ys, wy = _axis_nodes(domain.ly, n_modes)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            self.nodes = np.stack([gx.ravel(), gy.ravel()], axis=1)
            self.node_weights = np.full(self.nodes.shape[0], wx * wy)
            axes = [
                (domain.lx, xs, self.indices[:, 0]),
                (domain.ly, ys, self.indices[:, 1]),
            ]
        else:
            raise TypeError(f"unsupported domain {domain!r}")
        # per-axis tables of indices 1..J_a at the axis nodes, and the flat
        # position of each mode in the (J_1, ..., J_d) index grid
        tables, slopes = [], []
        for length, x, idx in axes:
            n = np.arange(1, int(idx.max()) + 1)
            tables.append(_sines(length, n, x))
            slopes.append(_sine_slopes(length, n, x))
        self._tables, self._slopes = tuple(tables), tuple(slopes)
        self._axes = tuple((length, idx) for length, _, idx in axes)
        self._grid_shape = tuple(t.shape[1] for t in tables)
        self._flat = np.ravel_multi_index(
            tuple(idx - 1 for _, idx in self._axes), self._grid_shape
        )
        self._advection = {}

    @cached_property
    def synthesis(self) -> np.ndarray:
        """Dense (nodes, modes) values; built on first use, for inspection."""
        return self.eval_modes(self.nodes)

    @cached_property
    def gradients(self):
        """Dense per-axis derivative matrices; built on first use."""
        return self.eval_grad_modes(self.nodes)

    def _synthesize(self, coeffs: np.ndarray, tables) -> np.ndarray:
        """(rows, n_modes) coefficients to (rows, nodes) values via ``tables``."""
        rows = coeffs.shape[0]
        grid = np.zeros((rows, int(np.prod(self._grid_shape))))
        grid[:, self._flat] = coeffs
        out = grid.reshape((rows,) + self._grid_shape)
        for table in tables:
            # contract the leading index axis; the node axis lands last
            moved = np.moveaxis(out, 1, -1)
            flat = moved.reshape(-1, table.shape[1]) @ table.T
            out = flat.reshape(moved.shape[:-1] + (table.shape[0],))
        return out.reshape(rows, -1)

    def _directional(self, coeffs: np.ndarray, direction) -> np.ndarray:
        """Node values of direction . grad u for (rows, n_modes) coefficients."""
        out = np.zeros((coeffs.shape[0], self.nodes.shape[0]))
        for axis, c in enumerate(direction):
            if c != 0.0:
                tables = list(self._tables)
                tables[axis] = self._slopes[axis]
                out += self._synthesize(c * coeffs, tables)
        return out

    def _advection_matrix(self, direction) -> np.ndarray:
        """M with (W @ M)[:, n] the coefficients of direction . grad w.

        Row m is the projection of direction . grad e_m.  M depends only on
        the basis and the direction, so it is built once per direction and
        kept on the basis (n_modes^2 values).
        """
        key = tuple(float(c) for c in direction)
        M = self._advection.get(key)
        if M is None:
            modes = np.eye(self.n_modes)
            M = np.empty_like(modes)
            for rows in _row_slices(self.n_modes, self.nodes.shape[0], _SAMPLE_BUDGET):
                M[rows] = project(self, self._directional(modes[rows], key))
            self._advection[key] = M
        return M

    def __repr__(self):
        return f"SpectralBasis({self.domain!r}, n_modes={self.n_modes})"

    def _axis_values(self, points, fn):
        """fn(length, indices, x) of each axis at points, a list over axes."""
        pts = np.asarray(points, dtype=float).reshape(-1, len(self._axes))
        return [fn(length, idx, x) for (length, idx), x in zip(self._axes, pts.T)]

    def eval_modes(self, points) -> np.ndarray:
        """Eigenfunction values, shape (n_points, n_modes)."""
        return math.prod(self._axis_values(points, _sines))

    def eval_grad_modes(self, points):
        """Per-axis eigenfunction derivatives, tuple of (n_points, n_modes)."""
        sines = self._axis_values(points, _sines)
        slopes = self._axis_values(points, _sine_slopes)
        return tuple(
            math.prod(sines[:a] + [slopes[a]] + sines[a + 1 :]) for a in range(len(sines))
        )


def build_basis(domain, n_modes: int) -> SpectralBasis:
    return SpectralBasis(domain, n_modes)


def project(basis: SpectralBasis, samples) -> np.ndarray:
    """Coefficients from samples at the collocation nodes.

    samples: (n_points,) or (..., n_points); leading axes are preserved.
    The node tables are contracted one axis at a time and the coefficients
    scaled once by the common node weight: on an interval that is
    (S @ E) * w, E the dense (nodes, modes) matrix.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape[-1] != basis.nodes.shape[0]:
        raise ValueError("sample count does not match collocation nodes")
    out = s.reshape((-1,) + tuple(t.shape[0] for t in basis._tables))
    rows = out.shape[0]
    for table in reversed(basis._tables):
        # contract the trailing node axis; the index axis moves to the front
        flat = out.reshape(-1, table.shape[0]) @ table
        out = np.moveaxis(flat.reshape(out.shape[:-1] + (table.shape[1],)), -1, 1)
    coeffs = out.reshape(rows, -1)[:, basis._flat]
    coeffs *= basis.node_weights[0]
    return coeffs.reshape(s.shape[:-1] + (basis.n_modes,))


def synthesize(basis: SpectralBasis, coeffs) -> np.ndarray:
    """Values of the field at the collocation nodes.

    coeffs: (n_modes,) or (..., n_modes); leading axes are preserved.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] != basis.n_modes:
        raise ValueError("coefficient count does not match the basis")
    out = basis._synthesize(c.reshape(-1, basis.n_modes), basis._tables)
    return out.reshape(c.shape[:-1] + (basis.nodes.shape[0],))


def hnorm(coeffs, basis: SpectralBasis, rho: float = 0.0, minus=None):
    """Hilbert-scale norm (sum lambda_n^rho c_n^2)^(1/2) along the last axis
    of coeffs, or of coeffs - minus; rho may be negative.

    Rows are taken a block of _BLOCK coefficients at a time; each keeps the
    bits of the one-pass sum, since that sum runs along the row.
    """
    c = np.asarray(coeffs, dtype=float)
    w = basis.eigenvalues**rho
    table = c.reshape(-1, c.shape[-1])
    if minus is not None:
        minus = np.asarray(minus, dtype=float).reshape(table.shape)
    out = np.empty(table.shape[0])
    for rows in _row_slices(table.shape[0], table.shape[1]):
        block = table[rows] if minus is None else table[rows] - minus[rows]
        out[rows] = np.sqrt(np.sum(w * block * block, axis=-1))
    return out.reshape(c.shape[:-1])[()]  # a scalar for a 1-d coeffs


def _row_slices(rows: int, width: int, budget=None):
    """Slices of at most budget // width rows (at least one); the budget is
    _BLOCK, read at call time, unless given."""
    step = max(1, (_BLOCK if budget is None else budget) // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))
