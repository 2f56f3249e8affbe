"""Structured run configuration: JSON load, dotted overrides, validation.

A config is a plain nested dict with sections (domain, kernel, grid,
problem, nonlinearity, history_kernel, initial, inverse, verify, certify).
Validation is aggregated: one pass collects every violation so a bad file
is fixed in one round trip, not one key at a time.

The two kernel sections (kernel, history_kernel) are read from one table
that lists each kind's keys in the order of its factory's arguments; one
validator and one builder serve both kernel classes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from .csvio import read_series_csv
from .grids import TimeGrid
from .kernels import HistoryKernel, MemoryKernel
from .nonlinear import Nonlinearity
from .spectral import Interval, Rectangle, SpectralBasis, build_basis

__all__ = [
    "ConfigError",
    "load_config",
    "apply_overrides",
    "validate_config",
    "config_hash",
    "build_grid",
    "build_domain_basis",
    "build_kernel",
    "build_history_kernel",
    "build_nonlinearity",
    "nonlinearity_from_section",
    "build_initial",
]

NONLINEARITY_KINDS = (
    "zero",
    "linear_diagonal",
    "polynomial_power",
    "advection_history",
    "sum",
)


class ConfigError(ValueError):
    """All validation violations, collected in one raise."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        lines = "\n  - ".join(self.problems)
        super().__init__(f"invalid configuration:\n  - {lines}")


def load_config(path: str) -> Dict:
    with open(path) as handle:
        cfg = json.load(handle)
    if not isinstance(cfg, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return cfg


def apply_overrides(cfg: Dict, assignments: Sequence[str]) -> Dict:
    """Apply dotted key=value strings; values parse as JSON, else strings."""
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError([f"override {item!r} is not of the form key=value"])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return cfg


def config_hash(cfg: Dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _num(section: Dict, key: str, where: str, problems: List[str], *,
         required=False, default=None, minimum=None, maximum=None,
         exclusive_min=None, exclusive_max=None, integer=False):
    if key not in section:
        if required:
            problems.append(f"{where}.{key} is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{where}.{key} must be a number, got {value!r}")
        return default
    if integer and int(value) != value:
        problems.append(f"{where}.{key} must be an integer, got {value!r}")
        return default
    if not math.isfinite(value):
        problems.append(f"{where}.{key} must be finite")
        return default
    if minimum is not None and value < minimum:
        problems.append(f"{where}.{key} must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        problems.append(f"{where}.{key} must be <= {maximum}, got {value}")
        return default
    if exclusive_min is not None and value <= exclusive_min:
        problems.append(f"{where}.{key} must be > {exclusive_min}, got {value}")
        return default
    if exclusive_max is not None and value >= exclusive_max:
        problems.append(f"{where}.{key} must be < {exclusive_max}, got {value}")
        return default
    return int(value) if integer else float(value)


def _choice(section: Dict, key: str, where: str, options, problems: List[str], *,
            required=False, default=None):
    if key not in section:
        if required:
            problems.append(f"{where}.{key} is required (one of {', '.join(options)})")
        return default
    value = section[key]
    if value not in options:
        problems.append(
            f"{where}.{key} must be one of {', '.join(options)}, got {value!r}"
        )
        return default
    return value


def _section(cfg: Dict, name: str, problems: List[str], required: bool) -> Optional[Dict]:
    if name not in cfg:
        if required:
            problems.append(f"section {name!r} is required")
        return None
    value = cfg[name]
    if not isinstance(value, dict):
        problems.append(f"section {name!r} must be a JSON object")
        return None
    return value


def _table_path(section: Dict, where: str, problems: List[str]) -> None:
    path = section.get("table_path")
    if not isinstance(path, str) or not path:
        problems.append(f"{where}.table_path is required for tabulated kernels")
    elif not os.path.exists(path):
        problems.append(f"{where}.table_path does not exist: {path}")


_POSITIVE = {"exclusive_min": 0.0}

# each kernel class's kinds -> their config keys, in factory-argument order,
# with each key's range; a tabulated kind reads table_path instead
_KERNEL_KEYS = {
    MemoryKernel: {
        "zero": (),
        "constant": (("m0", _POSITIVE),),
        "fractional": (("m0", _POSITIVE),
                       ("alpha", {"exclusive_min": 0.0, "exclusive_max": 1.0})),
        "exponential": (("m0", _POSITIVE), ("decay", _POSITIVE)),
    },
    HistoryKernel: {
        "zero": (),
        "constant": (("amplitude", {}),),
        "exponential": (("amplitude", {}), ("decay", _POSITIVE)),
        "powerlaw": (("amplitude", {}), ("exponent", {"exclusive_min": -1.0})),
    },
}


def _validate_kernel(cls, section: Dict, where: str, problems: List[str]) -> None:
    kind = _choice(section, "kind", where, cls.KINDS, problems, required=True)
    if kind == "tabulated":
        _table_path(section, where, problems)
    for key, bounds in _KERNEL_KEYS[cls].get(kind, ()):
        _num(section, key, where, problems, required=True, **bounds)


def _build_kernel(cls, section: Dict):
    kind = section["kind"]
    if kind == "tabulated":
        return cls.tabulated(*read_series_csv(section["table_path"]))
    args = [float(section[key]) for key, _ in _KERNEL_KEYS[cls][kind]]
    return getattr(cls, kind)(*args)


_THETA_UNREAD = "theta is not read; the orders need only mu < 1 + delta"


def _validate_orders(section: Dict, where: str, problems: List[str],
                     kind: Optional[str]) -> None:
    """The ranges ``Nonlinearity`` accepts: 0 < mu < 2, 0 < delta < 1 and
    mu < 1 + delta.  A sum without its own mu or delta takes its first
    part's, as ``Nonlinearity.sum_of`` does."""
    if "theta" in section:
        problems.append(f"{where}.{_THETA_UNREAD}")
    before = len(problems)
    mu = _num(section, "mu", where, problems, exclusive_min=0.0, exclusive_max=2.0)
    delta = _num(section, "delta", where, problems, exclusive_min=0.0,
                 exclusive_max=1.0)
    if len(problems) > before:
        return
    parts = section.get("parts")
    first = parts[0] if kind == "sum" and isinstance(parts, list) and parts else None
    inherited = first if isinstance(first, dict) else {}
    mu = inherited.get("mu", 1.0) if mu is None else mu
    delta = inherited.get("delta", 0.5) if delta is None else delta
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (mu, delta))
    if not (numbers and 0.0 < mu < 2.0 and 0.0 < delta < 1.0):
        return  # an inherited order out of range is reported with its part
    if mu >= 1.0 + delta:
        problems.append(
            f"{where}.mu = {mu:g} must be below 1 + delta = {1.0 + delta:g} "
            f"(delta = {delta:g})"
        )


def _validate_nonlinearity(section: Dict, where: str, problems: List[str],
                           ndim: Optional[int]) -> None:
    """ndim is the domain's dimension, or None when the domain is invalid."""
    kind = _choice(section, "kind", where, NONLINEARITY_KINDS, problems, required=True)
    _validate_orders(section, where, problems, kind)
    if kind == "linear_diagonal":
        coeffs = section.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            problems.append(f"{where}.coeffs must be a nonempty list")
    if kind == "polynomial_power":
        _num(section, "power", where, problems, required=True, exclusive_min=1.0)
        _num(section, "scale", where, problems)
    if kind == "advection_history":
        chi = section.get("chi")
        ok = isinstance(chi, (int, float)) and not isinstance(chi, bool)
        if not ok and not (isinstance(chi, list) and chi and all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in chi)):
            problems.append(f"{where}.chi must be a number or list of numbers")
        elif ndim is not None and (1 if ok else len(chi)) != ndim:
            problems.append(f"{where}.chi must have one component per domain "
                            f"dimension ({ndim}), got {chi!r}")
    if kind == "sum":
        parts = section.get("parts")
        if not isinstance(parts, list) or not parts:
            problems.append(f"{where}.parts must be a nonempty list of specs")
        else:
            for i, part in enumerate(parts):
                if not isinstance(part, dict):
                    problems.append(f"{where}.parts[{i}] must be a JSON object")
                elif part.get("kind") == "sum":
                    problems.append(f"{where}.parts[{i}]: nested sums are not supported")
                else:
                    _validate_nonlinearity(part, f"{where}.parts[{i}]", problems, ndim)


def _validate_initial(section: Dict, where: str, problems: List[str]) -> None:
    has_coeffs = "coefficients" in section
    has_preset = "preset" in section
    if has_coeffs == has_preset:
        problems.append(f"{where} needs exactly one of coefficients / preset")
        return
    if has_coeffs:
        coeffs = section["coefficients"]
        if not isinstance(coeffs, list) or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs):
            problems.append(f"{where}.coefficients must be a list of numbers")
    else:
        _choice(section, "preset", where, ("zero", "first_mode"), problems,
                required=True)
        _num(section, "amplitude", where, problems)


def validate_config(cfg: Dict, subcommand: str) -> None:
    """Raise ConfigError listing every violation for the given subcommand."""
    problems: List[str] = []

    ndim = None
    domain = _section(cfg, "domain", problems,
                      required=subcommand in ("solve", "verify", "inverse"))
    if domain is not None:
        shape = _choice(domain, "shape", "domain", ("interval", "rectangle"),
                        problems, required=True)
        ndim = {"interval": 1, "rectangle": 2}.get(shape)
        if shape == "interval":
            _num(domain, "L", "domain", problems, required=True, exclusive_min=0.0)
        elif shape == "rectangle":
            _num(domain, "Lx", "domain", problems, required=True, exclusive_min=0.0)
            _num(domain, "Ly", "domain", problems, required=True, exclusive_min=0.0)
        _num(domain, "N", "domain", problems, required=True, integer=True, minimum=1)
    elif subcommand == "relax":
        explicit = cfg.get("problem")
        if not (isinstance(explicit, dict) and explicit.get("lambdas")):
            problems.append("relax needs a domain section or problem.lambdas")

    grid = _section(cfg, "grid", problems, required=True)
    if grid is not None:
        _num(grid, "T", "grid", problems, required=True, exclusive_min=0.0)
        _num(grid, "N_t", "grid", problems, required=True, integer=True, minimum=2)
        grading = _num(grid, "grading", "grid", problems, minimum=1.0)
        if subcommand == "solve" and grading is not None and grading > 1.0:
            problems.append(
                f"grid.grading must be 1 for solve, got {grading}: the Holder "
                "estimate of holder.csv takes dyadic increments of a uniform grid"
            )

    kernel = _section(cfg, "kernel", problems, required=True)
    if kernel is not None:
        _validate_kernel(MemoryKernel, kernel, "kernel", problems)

    problem = _section(cfg, "problem", problems, required=False)
    if problem is not None:
        for key in ("mu", "delta"):
            if key in problem:
                problems.append(
                    f"problem.{key} is not read; set nonlinearity.{key} instead"
                )
        if "theta" in problem:
            problems.append(f"problem.{_THETA_UNREAD}")
        _num(problem, "beta", "problem", problems, minimum=0.0)
        _num(problem, "tol", "problem", problems, exclusive_min=0.0)
        _num(problem, "max_iter", "problem", problems, integer=True, minimum=1)
        _num(problem, "gamma", "problem", problems, exclusive_min=0.0,
             exclusive_max=0.5)
        _num(problem, "coeff_columns", "problem", problems, integer=True, minimum=1)
        lams = problem.get("lambdas")
        if lams is not None:
            ok = isinstance(lams, list) and lams and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                for v in lams)
            if not ok:
                problems.append("problem.lambdas must be a list of positive numbers")
            elif sorted(lams) != list(lams):
                problems.append("problem.lambdas must be sorted ascending")

    if subcommand == "solve":
        nl = _section(cfg, "nonlinearity", problems, required=True)
        if nl is not None:
            _validate_nonlinearity(nl, "nonlinearity", problems, ndim)
        hist = _section(cfg, "history_kernel", problems, required=True)
        if hist is not None:
            _validate_kernel(HistoryKernel, hist, "history_kernel", problems)
        init = _section(cfg, "initial", problems, required=True)
        if init is not None:
            _validate_initial(init, "initial", problems)

    if subcommand == "verify":
        verify = _section(cfg, "verify", problems, required=False)
        if verify is not None:
            _num(verify, "tol", "verify", problems, exclusive_min=0.0)
            _num(verify, "trials", "verify", problems, integer=True, minimum=1)
            _num(verify, "seed", "verify", problems, integer=True, minimum=0)
            _num(verify, "mu", "verify", problems, minimum=0.0)
            _num(verify, "delta", "verify", problems, exclusive_min=0.0,
                 exclusive_max=1.0)

    if subcommand == "certify":
        certify = _section(cfg, "certify", problems, required=False)
        if certify is not None:
            thetas = certify.get("thetas")
            if thetas is not None:
                ok = isinstance(thetas, list) and thetas and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                    for v in thetas)
                if not ok:
                    problems.append("certify.thetas must be a list of positive numbers")
            _num(certify, "tol", "certify", problems, exclusive_min=0.0)

    if subcommand == "inverse":
        inv = _section(cfg, "inverse", problems, required=True)
        if inv is not None:
            for key in ("psi_path", "g_path", "kappa_path"):
                path = inv.get(key)
                if not isinstance(path, str) or not path:
                    problems.append(f"inverse.{key} is required")
                elif not os.path.exists(path):
                    problems.append(f"inverse.{key} does not exist: {path}")
            prime = inv.get("psi_prime_path")
            if prime is not None and (not isinstance(prime, str)
                                      or not os.path.exists(prime)):
                problems.append(f"inverse.psi_prime_path does not exist: {prime}")
            f1 = inv.get("f1")
            if f1 is not None:
                if not isinstance(f1, dict):
                    problems.append("inverse.f1 must be a JSON object")
                else:
                    _validate_nonlinearity(f1, "inverse.f1", problems, ndim)
            _num(inv, "pairing_floor", "inverse", problems, exclusive_min=0.0)
            _num(inv, "tol", "inverse", problems, exclusive_min=0.0)
            _num(inv, "max_iter", "inverse", problems, integer=True, minimum=1)
        init = _section(cfg, "initial", problems, required=False)
        if init is not None:
            _validate_initial(init, "initial", problems)

    if problems:
        raise ConfigError(problems)


def build_grid(cfg: Dict) -> TimeGrid:
    section = cfg["grid"]
    horizon = float(section["T"])
    n_steps = int(section["N_t"])
    grading = float(section.get("grading", 1.0))
    if grading > 1.0:
        return TimeGrid.graded(horizon, n_steps, grading)
    return TimeGrid.uniform(horizon, n_steps)


def build_domain_basis(cfg: Dict) -> SpectralBasis:
    section = cfg["domain"]
    if section["shape"] == "interval":
        domain = Interval(float(section["L"]))
    else:
        domain = Rectangle(float(section["Lx"]), float(section["Ly"]))
    return build_basis(domain, int(section["N"]))


def build_kernel(cfg: Dict) -> MemoryKernel:
    return _build_kernel(MemoryKernel, cfg["kernel"])


def build_history_kernel(cfg: Dict) -> HistoryKernel:
    return _build_kernel(HistoryKernel, cfg.get("history_kernel", {"kind": "zero"}))


def nonlinearity_from_section(section: Dict) -> Nonlinearity:
    kind = section["kind"]
    kw = {}
    for key in ("mu", "delta"):
        if key in section:
            kw[key] = float(section[key])
    if kind == "zero":
        return Nonlinearity.zero(**kw)
    if kind == "linear_diagonal":
        return Nonlinearity.linear_diagonal(np.asarray(section["coeffs"], float), **kw)
    if kind == "polynomial_power":
        return Nonlinearity.polynomial_power(
            float(section["power"]),
            scale=float(section.get("scale", 1.0)),
            signed=bool(section.get("signed", True)),
            **kw,
        )
    if kind == "advection_history":
        chi = section["chi"]
        chi = [float(c) for c in chi] if isinstance(chi, list) else float(chi)
        return Nonlinearity.advection_history(chi, **kw)
    parts = [nonlinearity_from_section(p) for p in section["parts"]]
    return Nonlinearity.sum_of(*parts, **kw)


def build_nonlinearity(cfg: Dict) -> Nonlinearity:
    return nonlinearity_from_section(cfg["nonlinearity"])


def build_initial(cfg: Dict, basis: SpectralBasis) -> np.ndarray:
    section = cfg.get("initial", {"preset": "zero"})
    n = basis.eigenvalues.size
    if "coefficients" in section:
        listed = np.asarray(section["coefficients"], dtype=float)
        if listed.size > n:
            raise ConfigError(
                [f"initial.coefficients has {listed.size} entries; domain has {n} modes"]
            )
        coeffs = np.zeros(n)
        coeffs[: listed.size] = listed
        return coeffs
    coeffs = np.zeros(n)
    if section["preset"] == "first_mode":
        coeffs[0] = float(section.get("amplitude", 1.0))
    return coeffs
