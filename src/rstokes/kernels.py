"""Memory and history kernels, exact moment tables, and kernel certificates.

A memory kernel m enters the dynamics only through a(t) = 1 + m(t).  All
quadrature downstream consumes cell moments int m ds and int s*m(s) ds rather
than pointwise values, so weakly singular kinds (t**-alpha) are handled
without regularization and are never evaluated at t = 0.

Each closed form is written once, on ``HistoryKernel``: its value and its
two cell moments, and a cumulative integral int_0^t is the first moment of
the cell [0, t].  A ``MemoryKernel`` holds m as a history kernel and adds
only its own validation, flags and a = 1 + m: the fractional kind is
powerlaw(m0 / Gamma(alpha), -alpha), the others are the history kind of the
same name with amplitude m0.  Only ``HistoryKernel`` refuses a value at
t = 0 of a kernel singular there.

Checks: every structural check of the package (``verify_relaxation``,
``verify_sol_op_bounds`` and the two certificates below) reports ``Check``
rows.  One fold takes the worst margin of a row and the time it falls at,
counting a non-finite margin as -inf, and one rule passes a margin within
``CHECK_TOL`` (or the caller's tol) of 0.

* ``certify_completely_positive`` solves the two defining Volterra equations
  of complete positivity for sampled theta > 0 and checks nonnegativity of
  both solutions on the grid.
* ``certify_pc`` solves the first-kind equation k * a = 1 (convolution) for
  the unbounded kind and checks that k is nonnegative and nonincreasing;
  bounded kernels report "not-applicable".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .grids import TimeGrid
from .volterra import first_kind_solve, second_kind_solve

__all__ = [
    "MemoryKernel",
    "HistoryKernel",
    "CHECK_TOL",
    "Check",
    "verdict",
    "certify_completely_positive",
    "certify_pc",
]


class _PiecewiseLinear:
    """Piecewise-linear function on [0, inf) with exact first two moments.

    Segment i covers [breaks[i], breaks[i+1]) (the last one extends to
    infinity) and carries value c0[i] + c1[i]*s.
    """

    def __init__(self, breaks, c0, c1):
        self.breaks = np.asarray(breaks, dtype=float)
        self.c0 = np.asarray(c0, dtype=float)
        self.c1 = np.asarray(c1, dtype=float)
        # nodal cumulative integrals of m and s*m for O(1) segment queries
        b = self.breaks
        i0 = self.c0[:-1] * np.diff(b) + self.c1[:-1] * np.diff(b**2) / 2.0
        i1 = self.c0[:-1] * np.diff(b**2) / 2.0 + self.c1[:-1] * np.diff(b**3) / 3.0
        self._cum0 = np.concatenate([[0.0], np.cumsum(i0)])
        self._cum1 = np.concatenate([[0.0], np.cumsum(i1)])

    def _segment(self, x):
        return np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, None)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        i = self._segment(x)
        return self.c0[i] + self.c1[i] * x

    def integral0(self, x):
        x = np.asarray(x, dtype=float)
        i = self._segment(x)
        b = self.breaks[i]
        return self._cum0[i] + self.c0[i] * (x - b) + self.c1[i] * (x**2 - b**2) / 2.0

    def integral1(self, x):
        x = np.asarray(x, dtype=float)
        i = self._segment(x)
        b = self.breaks[i]
        return self._cum1[i] + self.c0[i] * (x**2 - b**2) / 2.0 + self.c1[i] * (x**3 - b**3) / 3.0


def _interpolant_from_table(t, values):
    """Linear interpolation between samples, flat extension on both sides."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("tabulated kernel needs at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("tabulated kernel samples must be finite")
    if t[0] <= 0.0:
        raise ValueError("tabulated kernel samples must start at t > 0")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("tabulated kernel times must be strictly increasing")
    slopes = np.diff(v) / np.diff(t)
    breaks = np.concatenate([[0.0], t])
    c1 = np.concatenate([[0.0], slopes, [0.0]])
    c0 = np.concatenate([[v[0]], v[:-1] - slopes * t[:-1], [v[-1]]])
    return _PiecewiseLinear(breaks, c0, c1)


@dataclass(frozen=True)
class MemoryKernel:
    """Nonnegative memory kernel m of the generalized time derivative.

    Kinds
    -----
    zero         m = 0 (classical diffusion limit)
    constant     m = m0 >= 0
    fractional   m(t) = m0 * t**(-alpha) / Gamma(alpha), 0 < alpha < 1
    exponential  m(t) = m0 * exp(-decay * t)
    tabulated    linear interpolation of (t, m) samples, flat extensions

    Only the fractional kind is unbounded at t = 0; its pointwise value at 0
    is undefined while its cumulative integral stays finite.

    Values, cumulative integrals, moments and bounded_at_zero come from the
    history kernel m built at construction (module docstring).
    """

    kind: str
    m0: float = 0.0
    alpha: float = 0.5
    decay: float = 1.0
    table_t: Optional[np.ndarray] = None
    table_m: Optional[np.ndarray] = None

    KINDS = ("zero", "constant", "fractional", "exponential", "tabulated")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown memory kernel kind {self.kind!r}")
        if self.kind in ("constant", "fractional", "exponential") and self.m0 < 0.0:
            raise ValueError("m0 must be nonnegative")
        if self.kind == "fractional":
            if not (0.0 < self.alpha < 1.0):
                raise ValueError("fractional exponent alpha must lie in (0, 1)")
            if self.m0 <= 0.0:
                raise ValueError("fractional kind needs m0 > 0")
        if self.kind == "exponential" and self.decay <= 0.0:
            raise ValueError("exponential decay rate must be positive")
        if self.kind == "tabulated":
            m = HistoryKernel.tabulated(self.table_t, self.table_m)
            if np.any(m.table_v < 0.0):
                raise ValueError("memory kernel samples must be nonnegative")
        elif self.kind == "fractional":
            m = HistoryKernel.powerlaw(self.m0 / math.gamma(self.alpha), -self.alpha)
        else:
            m = HistoryKernel(self.kind, amplitude=self.m0, decay=self.decay)
        object.__setattr__(self, "_m", m)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "MemoryKernel":
        return cls("zero")

    @classmethod
    def constant(cls, m0: float) -> "MemoryKernel":
        return cls("constant", m0=float(m0))

    @classmethod
    def fractional(cls, m0: float, alpha: float) -> "MemoryKernel":
        return cls("fractional", m0=float(m0), alpha=float(alpha))

    @classmethod
    def exponential(cls, m0: float, decay: float) -> "MemoryKernel":
        return cls("exponential", m0=float(m0), decay=float(decay))

    @classmethod
    def tabulated(cls, t, values) -> "MemoryKernel":
        return cls(
            "tabulated",
            table_t=np.asarray(t, dtype=float),
            table_m=np.asarray(values, dtype=float),
        )

    # -- pointwise and integral values --------------------------------------

    def __call__(self, t):
        return self._m(t)

    def cumulative(self, t):
        """Exact (1*m)(t) = int_0^t m(s) ds."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("cumulative integral needs t >= 0")
        return self._m.cumulative(t)

    def moments(self, lo, hi):
        """Exact cell integrals (int_lo^hi m, int_lo^hi s*m(s) ds)."""
        return self._m.moments(lo, hi)

    def a_moments(self, lo, hi):
        """Cell moments of a = 1 + m (the solver-facing kernel)."""
        m0, m1 = self.moments(lo, hi)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return (hi - lo) + m0, (hi**2 - lo**2) / 2.0 + m1

    # -- structural flags ----------------------------------------------------

    @property
    def bounded_at_zero(self) -> bool:
        return self._m.bounded_at_zero

    @property
    def nonincreasing(self) -> bool:
        if self.kind != "tabulated":
            return True
        return bool(np.all(np.diff(self.table_m) <= 0.0))

    def value_at_zero(self) -> float:
        """m(0), flat extension for tabulated kernels; a kernel unbounded at
        t = 0 has none (ValueError)."""
        return float(self._m(0.0))

    def derivative_history_kernel(self) -> "HistoryKernel":
        """m' as a history kernel (for the convolution m' * u).

        A tabulated kernel's m' is the exact derivative of its interpolant:
        each segment's slope between its samples, and 0 before the first
        sample and after the last, where the interpolant is flat.
        """
        if not self.bounded_at_zero:
            raise ValueError("fractional kernel has no integrable derivative at 0")
        if self.kind in ("zero", "constant"):
            return HistoryKernel.zero()
        if self.kind == "exponential":
            return HistoryKernel.exponential(-self.m0 * self.decay, self.decay)
        t = self.table_t
        return HistoryKernel._steps(t, np.diff(self.table_m) / np.diff(t))


@dataclass(frozen=True)
class HistoryKernel:
    """Integrable history kernel ell of the convolution Hv = ell * v.

    Kinds: zero, constant, exponential (amplitude * exp(-decay t)),
    powerlaw (amplitude * t**exponent with exponent > -1), tabulated.
    Amplitudes may be negative; only integrability is required.
    """

    kind: str
    amplitude: float = 0.0
    decay: float = 1.0
    exponent: float = -0.5
    table_t: Optional[np.ndarray] = None
    table_v: Optional[np.ndarray] = None

    KINDS = ("zero", "constant", "exponential", "powerlaw", "tabulated")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown history kernel kind {self.kind!r}")
        if self.kind == "exponential" and self.decay <= 0.0:
            raise ValueError("exponential decay rate must be positive")
        if self.kind == "powerlaw" and self.exponent <= -1.0:
            raise ValueError("powerlaw exponent must be > -1 for integrability")
        if self.kind == "tabulated":
            object.__setattr__(
                self, "_interp", _interpolant_from_table(self.table_t, self.table_v)
            )

    @classmethod
    def zero(cls) -> "HistoryKernel":
        return cls("zero")

    @classmethod
    def constant(cls, amplitude: float) -> "HistoryKernel":
        return cls("constant", amplitude=float(amplitude))

    @classmethod
    def exponential(cls, amplitude: float, decay: float) -> "HistoryKernel":
        return cls("exponential", amplitude=float(amplitude), decay=float(decay))

    @classmethod
    def powerlaw(cls, amplitude: float, exponent: float) -> "HistoryKernel":
        return cls("powerlaw", amplitude=float(amplitude), exponent=float(exponent))

    @classmethod
    def tabulated(cls, t, values) -> "HistoryKernel":
        return cls(
            "tabulated",
            table_t=np.asarray(t, dtype=float),
            table_v=np.asarray(values, dtype=float),
        )

    @classmethod
    def _steps(cls, t, values) -> "HistoryKernel":
        """Tabulated kind holding the step function values[i] on
        [t[i], t[i+1]), 0 before t[0] and from t[-1] on.

        table_v lists the step's value from each t_i on (values, then 0); the
        kernel is that step function, not the linear interpolant of table_v.
        """
        t = np.asarray(t, dtype=float)
        v = np.asarray(values, dtype=float)
        kernel = cls.tabulated(t, np.append(v, 0.0))
        c0 = np.concatenate([[0.0], v, [0.0]])
        step = _PiecewiseLinear(np.concatenate([[0.0], t]), c0, np.zeros_like(c0))
        object.__setattr__(kernel, "_interp", step)
        return kernel

    @property
    def bounded_at_zero(self) -> bool:
        return not (self.kind == "powerlaw" and self.exponent < 0.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("kernel evaluated at negative time")
        if not self.bounded_at_zero and np.any(t == 0.0):
            raise ValueError("a kernel singular at t = 0 has no value there")
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "constant":
            return np.full_like(t, self.amplitude)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-self.decay * t)
        if self.kind == "powerlaw":
            return self.amplitude * t**self.exponent
        return self._interp.value(t)

    def cumulative(self, t):
        """Signed int_0^t ell(s) ds, the first moment of the cell [0, t]."""
        return self.moments(0.0, t)[0]

    def cumulative_abs(self, t):
        """int_0^t |ell(s)| ds; fixed-sign kinds reduce to |cumulative|."""
        t = np.asarray(t, dtype=float)
        if self.kind != "tabulated":
            return np.abs(self.cumulative(t))
        return _abs_interpolant(self._interp).integral0(t)

    def moments(self, lo, hi):
        """Signed cell integrals (int ell, int s*ell(s) ds)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        A = self.amplitude
        if self.kind == "zero":
            z = np.zeros(np.broadcast(lo, hi).shape)
            return z, z.copy()
        if self.kind == "constant":
            return A * (hi - lo), A * (hi**2 - lo**2) / 2.0
        if self.kind == "exponential":
            c = self.decay
            ea, eb = np.exp(-c * lo), np.exp(-c * hi)
            return (
                A * (ea - eb) / c,
                A * ((lo / c + 1.0 / c**2) * ea - (hi / c + 1.0 / c**2) * eb),
            )
        if self.kind == "powerlaw":
            q = self.exponent
            return (
                A * (hi ** (q + 1.0) - lo ** (q + 1.0)) / (q + 1.0),
                A * (hi ** (q + 2.0) - lo ** (q + 2.0)) / (q + 2.0),
            )
        return (
            self._interp.integral0(hi) - self._interp.integral0(lo),
            self._interp.integral1(hi) - self._interp.integral1(lo),
        )


def _abs_interpolant(interp: _PiecewiseLinear) -> _PiecewiseLinear:
    """|f| of a piecewise-linear f, splitting segments at sign changes."""
    breaks, c0, c1 = [], [], []
    n = interp.breaks.size
    ends = np.append(interp.breaks[1:], np.inf)
    for i in range(n):
        b, e = interp.breaks[i], ends[i]
        a0, a1 = interp.c0[i], interp.c1[i]
        breaks.append(b)
        if a1 != 0.0:
            root = -a0 / a1
            if b < root < e:
                sign_lo = 1.0 if a0 + a1 * b >= 0.0 else -1.0
                c0.append(sign_lo * a0)
                c1.append(sign_lo * a1)
                breaks.append(root)
                c0.append(-sign_lo * a0)
                c1.append(-sign_lo * a1)
                continue
        mid = b + 1.0 if not np.isfinite(e) else 0.5 * (b + e)
        sign = 1.0 if a0 + a1 * mid >= 0.0 else -1.0
        c0.append(sign * a0)
        c1.append(sign * a1)
    return _PiecewiseLinear(np.asarray(breaks), np.asarray(c0), np.asarray(c1))


# -- checks and certificates -------------------------------------------------

# the default tolerance of every check: a margin >= -CHECK_TOL passes
CHECK_TOL = 1e-8


@dataclass(frozen=True)
class Check:
    """One row of a structural check.

    status is "pass", "fail", "skip" or "not-applicable"; worst_margin is
    the smallest margin (nan where none was taken), t_worst the time it
    falls at, and param the row's lambda or theta, if it has one.
    """

    name: str
    status: str
    worst_margin: float = math.nan
    t_worst: float = math.nan
    param: Optional[float] = None
    reason: str = ""


class _Worst:
    """Running worst (smallest) margin over margin series and the time it
    falls at; a margin that is not finite (an overflowed bound) counts as
    -inf."""

    def __init__(self):
        self.margin, self.t = np.inf, 0.0

    def fold(self, margin, t):
        margin = np.where(np.isfinite(margin), margin, -np.inf)
        i = int(np.argmin(margin))
        if margin[i] < self.margin:
            self.margin, self.t = float(margin[i]), float(t[i])

    def check(self, name, tol, param=None) -> Check:
        status = "pass" if self.margin >= -tol else "fail"
        return Check(name, status, self.margin, self.t, param)


def verdict(name, margin, t, tol, param=None) -> Check:
    """The row of one margin series over the times t."""
    worst = _Worst()
    worst.fold(margin, t)
    return worst.check(name, tol, param)


DEFAULT_THETAS = (0.1, 1.0, 10.0)

# smallest diagonal weight of the first-kind system that certify_pc trusts
_DIAG_FLOOR = 1e-12


def certify_completely_positive(
    kernel: MemoryKernel,
    grid: TimeGrid,
    thetas=DEFAULT_THETAS,
    tol: float = CHECK_TOL,
) -> List[Check]:
    """Check complete positivity of a = 1 + m on the grid.

    For each sampled theta > 0, solves

        s + theta * (a conv s) = 1
        r + theta * (a conv r) = a

    and returns a completely_positive_s and a completely_positive_r row
    (param theta) for the grid minima of s and r.  The r-equation has an
    unbounded right-hand side for singular kernels, so it is collocated in
    integrated form: w = 1 conv r satisfies w + theta*(a conv w) = 1 conv a,
    and w_0 = 0.  The uniform system is then Toeplitz, so it commutes with
    the first difference: the increments d_i = w_i - w_{i-1} solve it with
    the right-hand side 0 at row 0 and a's cell masses after it, which the
    moments give without cancellation, and r = d / dt on nodes[1:].

    Both equations are one solve: every theta twice, the s columns first,
    each column with its own right-hand side.  A batched column keeps the
    bits of its own solve, so this equals two separate solves.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0 or np.any(thetas <= 0.0):
        raise ValueError("theta samples must be nonempty and positive")
    t = grid.nodes
    k = thetas.size
    rhs = np.zeros((t.size, 2 * k))
    rhs[:, :k] = 1.0
    rhs[1:, k:] = kernel.a_moments(t[:-1], t[1:])[0][:, None]
    sd, _ = second_kind_solve(kernel.a_moments, grid, np.tile(thetas, 2), rhs)
    s, r = sd[:, :k], sd[1:, k:] / grid.dt
    rows = []
    for j, theta in enumerate(thetas):
        rows.append(verdict("completely_positive_s", s[:, j], t, tol, theta))
        rows.append(verdict("completely_positive_r", r[:, j], t[1:], tol, theta))
    return rows


def certify_pc(kernel: MemoryKernel, grid: TimeGrid, tol: float = CHECK_TOL) -> Check:
    """Certify the zero-slack splitting k * a = 1 with k >= 0 nonincreasing.

    Only meaningful for kernels unbounded at t = 0; bounded kinds return
    "not-applicable" instead of forcing the zero-slack equation.  The
    worst margin is the minimum of k; its increases are held to tol too.
    """
    name = "unbounded_splitting"
    if kernel.bounded_at_zero:
        return Check(name, "not-applicable",
                     reason="kernel bounded at t = 0: zero-slack splitting not required")
    k, diag = first_kind_solve(kernel.a_moments, grid, 1.0)
    if diag < _DIAG_FLOOR:
        return Check(name, "fail",
                     reason=f"ill-conditioned first-kind system: diagonal weight "
                     f"{diag:.3e} below floor {_DIAG_FLOOR:.3e}")
    check = verdict(name, k, grid.nodes, tol)
    max_increase = float(np.max(np.diff(k))) if k.size > 1 else 0.0
    if check.status == "pass" and max_increase <= tol:
        return check
    return replace(check, status="fail",
                   reason="sampled k violates nonnegativity or monotonicity")
