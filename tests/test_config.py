"""Config loading, validation, overrides, and section builders."""

import hashlib
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rstokes import Interval, Nonlinearity, Rectangle
from rstokes.config import (
    _KERNEL_KEYS,
    _REACTION_KEYS,
    ConfigError,
    apply_overrides,
    build_domain_basis,
    build_grid,
    build_history_kernel,
    build_initial,
    build_kernel,
    build_nonlinearity,
    config_hash,
    load_config,
    nonlinearity_from_section,
    validate_config,
)


def solve_cfg(**extra):
    cfg = {
        "domain": {"shape": "interval", "L": 1.0, "N": 4},
        "grid": {"T": 1.0, "N_t": 64},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "nonlinearity": {"kind": "zero"},
        "history_kernel": {"kind": "zero"},
        "initial": {"preset": "first_mode", "amplitude": 0.1},
    }
    cfg.update(extra)
    return cfg


def test_valid_solve_config_passes():
    validate_config(solve_cfg(), "solve")


def test_all_violations_are_collected_in_one_error():
    cfg = solve_cfg(
        domain={"shape": "triangle"},
        grid={"T": -1.0},
        kernel={"kind": "fractional", "m0": 1.0, "alpha": 1.5},
    )
    with pytest.raises(ConfigError) as info:
        validate_config(cfg, "solve")
    text = str(info.value)
    assert "domain.shape" in text
    assert "grid.T" in text
    assert "grid.N_t" in text
    assert "kernel.alpha" in text
    assert len(info.value.problems) >= 4


def test_relax_accepts_explicit_lambdas_without_domain():
    cfg = {
        "problem": {"lambdas": [1.0, 4.0, 9.0]},
        "grid": {"T": 1.0, "N_t": 32},
        "kernel": {"kind": "zero"},
    }
    validate_config(cfg, "relax")
    del cfg["problem"]
    with pytest.raises(ConfigError, match="lambdas"):
        validate_config(cfg, "relax")


def test_lambdas_must_be_sorted_positive():
    base = {
        "grid": {"T": 1.0, "N_t": 32},
        "kernel": {"kind": "zero"},
    }
    with pytest.raises(ConfigError, match="ascending"):
        validate_config({**base, "problem": {"lambdas": [4.0, 1.0]}}, "relax")
    with pytest.raises(ConfigError, match="positive"):
        validate_config({**base, "problem": {"lambdas": [-1.0, 2.0]}}, "relax")


def test_infinite_list_entries_are_refused():
    # each used to pass: Infinity is a positive number to "v > 0"
    inf = float("inf")
    relax = {"grid": {"T": 1.0, "N_t": 32}, "kernel": {"kind": "zero"}}
    bad = [
        ({**relax, "problem": {"lambdas": [1.0, inf]}}, "relax",
         "problem.lambdas must be a list of positive numbers"),
        ({**relax, "certify": {"thetas": [inf]}}, "certify",
         "certify.thetas must be a list of positive numbers"),
        (solve_cfg(nonlinearity={"kind": "advection_history", "chi": inf}), "solve",
         "nonlinearity.chi must be a finite number or list of them"),
    ]
    for cfg, command, problem in bad:
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, command)
        assert list(info.value.problems) == [problem]


def test_inverse_requires_existing_paths(tmp_path):
    cfg = {
        "domain": {"shape": "interval", "L": 1.0, "N": 4},
        "grid": {"T": 1.0, "N_t": 64},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "inverse": {
            "psi_path": str(tmp_path / "missing.csv"),
            "g_path": str(tmp_path / "also_missing.csv"),
        },
    }
    with pytest.raises(ConfigError) as info:
        validate_config(cfg, "inverse")
    text = str(info.value)
    assert "psi_path" in text
    assert "g_path" in text
    assert "kappa_path" in text


def test_gamma_band_is_enforced():
    cfg = solve_cfg(problem={"gamma": 0.5})
    with pytest.raises(ConfigError, match="gamma"):
        validate_config(cfg, "solve")


def test_nonlinearity_orders_are_refused_under_problem():
    # problem.mu / delta / theta used to pass validation and change nothing
    cfg = solve_cfg(problem={"mu": 0.1, "delta": 0.5, "theta": -5.0, "tol": 1e-8})
    with pytest.raises(ConfigError) as info:
        validate_config(cfg, "solve")
    assert list(info.value.problems) == [
        "problem.mu is not read; set nonlinearity.mu instead",
        "problem.delta is not read; set nonlinearity.delta instead",
        "problem.theta is not read; the orders need only mu < 1 + delta",
    ]
    validate_config(solve_cfg(nonlinearity={"kind": "zero", "mu": 0.5, "delta": 0.4}),
                    "solve")


@pytest.mark.parametrize("where", ["plain", "part"])
def test_nonlinearity_theta_is_refused(where):
    # nothing reads theta: the orders need only mu < 1 + delta
    section = {"kind": "zero", "theta": 0.5}
    name = "nonlinearity"
    if where == "part":
        section = {"kind": "sum", "parts": [section]}
        name = "nonlinearity.parts[0]"
    with pytest.raises(ConfigError) as info:
        validate_config(solve_cfg(nonlinearity=section), "solve")
    assert list(info.value.problems) == [
        f"{name}.theta is not read; the orders need only mu < 1 + delta"
    ]


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@settings(max_examples=200)
@given(
    mu=_maybe(st.floats(-0.5, 2.5)),
    delta=_maybe(st.floats(-0.5, 1.5)),
    where=st.sampled_from(["plain", "part", "sum"]),
)
def test_nonlinearity_orders_are_validated_as_the_constructor_checks(
    mu, delta, where
):
    # validation refuses exactly the orders Nonlinearity refuses: mu outside
    # (0, 2), delta outside (0, 1), and mu >= 1 + delta
    orders = {k: v for k, v in (("mu", mu), ("delta", delta)) if v is not None}
    section = {"kind": "zero", **(orders if where == "plain" else {})}
    if where == "part":
        section = {"kind": "sum", "parts": [{"kind": "zero", **orders}]}
    elif where == "sum":
        section = {"kind": "sum", "parts": [section], **orders}
    try:
        nonlinearity_from_section(section)
        builds = True
    except ValueError:
        builds = False
    try:
        validate_config(solve_cfg(nonlinearity=section), "solve")
        valid = True
    except ConfigError:
        valid = False
    assert valid == builds


def test_a_sum_checks_its_own_mu_against_its_first_part_s_delta():
    # the sum takes delta from its first part: mu = 1.6 >= 1 + 0.5 fails
    # there, though the part itself (mu = 1.0) passes
    part = {"kind": "zero", "mu": 1.0, "delta": 0.5}
    with pytest.raises(ConfigError) as info:
        validate_config(
            solve_cfg(nonlinearity={"kind": "sum", "parts": [part], "mu": 1.6}),
            "solve",
        )
    assert list(info.value.problems) == [
        "nonlinearity.mu = 1.6 must be below 1 + delta = 1.5 (delta = 0.5)"
    ]
    with pytest.raises(ValueError, match="1 \\+ delta"):
        nonlinearity_from_section({"kind": "sum", "parts": [part], "mu": 1.6})
    validate_config(
        solve_cfg(nonlinearity={"kind": "sum", "parts": [part], "mu": 1.4}),
        "solve",
    )


@pytest.mark.parametrize("command", ["relax", "certify", "verify", "solve", "inverse"])
def test_grid_grading_is_refused_for_every_command(command):
    # the time grid is uniform; a finer one comes from a larger N_t
    for grading in (1.0, 2.0):
        cfg = solve_cfg(grid={"T": 1.0, "N_t": 64, "grading": grading})
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, command)
        assert ("grid.grading is not read; the time grid is uniform, so raise "
                "grid.N_t for a finer one") in info.value.problems


def test_grid_needs_two_steps():
    # a one-step grid used to pass validation and fail in TimeGrid.uniform
    with pytest.raises(ConfigError, match="N_t must be >= 2"):
        validate_config(solve_cfg(grid={"T": 1.0, "N_t": 1}), "solve")
    validate_config(solve_cfg(grid={"T": 1.0, "N_t": 2}), "solve")


def test_apply_overrides_parses_json_values():
    cfg = {"grid": {"N_t": 64}}
    apply_overrides(
        cfg,
        ["grid.N_t=128", "problem.tol=1e-8", "kernel.kind=fractional",
         "problem.lambdas=[1.0, 2.0]"],
    )
    assert cfg["grid"]["N_t"] == 128
    assert cfg["problem"]["tol"] == 1e-8
    assert cfg["kernel"]["kind"] == "fractional"  # bare word falls back to str
    assert cfg["problem"]["lambdas"] == [1.0, 2.0]
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no_equals_sign"])


def test_config_hash_is_order_insensitive():
    a = {"grid": {"T": 1.0, "N_t": 64}, "kernel": {"kind": "zero"}}
    b = {"kernel": {"kind": "zero"}, "grid": {"N_t": 64, "T": 1.0}}
    assert config_hash(a) == config_hash(b)
    b["grid"]["N_t"] = 128
    assert config_hash(a) != config_hash(b)


def test_config_hash_is_the_sha256_of_the_canonical_json():
    # the built-in SHA-256 gives hashlib's digest, so summaries keep their hash
    for cfg in ({}, solve_cfg(), {"kernel": {"kind": "zero"}, "grid": {"N_t": 64}},
                {"name": "\u00fcnic\u00f8de", "values": [1, 2.5, None, True]}):
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


def test_load_config_requires_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"grid": {}}))
    assert load_config(str(path)) == {"grid": {}}


# -- builders -------------------------------------------------------------


def test_build_grid_uniform_and_graded():
    grid = build_grid({"grid": {"T": 2.0, "N_t": 8}})
    assert grid.horizon == 2.0 and grid.n_steps == 8
    assert np.array_equal(grid.nodes, np.linspace(0.0, 2.0, 9))
    # a graded grid never reaches build_grid: validation refuses the key
    with pytest.raises(ConfigError, match="grid.grading"):
        validate_config(solve_cfg(grid={"T": 1.0, "N_t": 8, "grading": 2.0}), "solve")


def test_build_domain_basis_shapes():
    interval = build_domain_basis(
        {"domain": {"shape": "interval", "L": 2.0, "N": 3}}
    )
    assert isinstance(interval.domain, Interval)
    assert interval.n_modes == 3
    rect = build_domain_basis(
        {"domain": {"shape": "rectangle", "Lx": 1.0, "Ly": 2.0, "N": 5}}
    )
    assert isinstance(rect.domain, Rectangle)
    assert rect.n_modes == 5


def test_build_kernel_kinds(tmp_path):
    assert build_kernel({"kernel": {"kind": "zero"}}).kind == "zero"
    k = build_kernel({"kernel": {"kind": "fractional", "m0": 0.5, "alpha": 0.3}})
    assert k.m0 == 0.5 and k.alpha == 0.3
    table = tmp_path / "m.csv"
    table.write_text("t,m\n0.5,2.0\n1.0,1.0\n")
    tab = build_kernel({"kernel": {"kind": "tabulated", "table_path": str(table)}})
    assert tab.kind == "tabulated"
    assert tab(0.75) == pytest.approx(1.5)


def test_build_history_kernel_defaults_to_zero():
    assert build_history_kernel({}).kind == "zero"
    ell = build_history_kernel(
        {"history_kernel": {"kind": "exponential", "amplitude": 2.0, "decay": 1.0}}
    )
    assert ell(0.0) == pytest.approx(2.0)


def test_nonlinearity_sections_recurse():
    spec = nonlinearity_from_section(
        {
            "kind": "sum",
            "parts": [
                {"kind": "polynomial_power", "power": 2.0, "scale": 0.5},
                {"kind": "advection_history", "chi": [0.1]},
            ],
            "mu": 1.0,
            "delta": 0.5,
        }
    )
    assert spec.kind == "sum"
    assert [p.kind for p in spec.parts] == ["polynomial_power", "advection_history"]
    diag = build_nonlinearity(
        {"nonlinearity": {"kind": "linear_diagonal", "coeffs": [1.0, 2.0]}}
    )
    np.testing.assert_array_equal(diag.coeffs, [1.0, 2.0])


# one valid section of every reaction kind
REACTION_SECTIONS = [
    {"kind": "zero"},
    {"kind": "linear_diagonal", "coeffs": [1.0, 2.0]},
    {"kind": "polynomial_power", "power": 3.0, "scale": 0.5, "signed": False},
    {"kind": "advection_history", "chi": [0.1, -0.2]},
    {"kind": "sum", "parts": [{"kind": "zero"}, {"kind": "polynomial_power", "power": 2}]},
]


def test_every_kind_is_named_and_keyed_by_its_factory():
    # a kind's config name is its factory's name, and its config keys are
    # that factory's parameters
    for cls, kinds in _KERNEL_KEYS.items():
        for kind, keys in kinds.items():
            params = inspect.signature(getattr(cls, kind)).parameters
            assert list(params) == [key for key, _ in keys], (cls, kind)
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for kind, keys in _REACTION_KEYS.items():
        if kind != "sum":
            params = inspect.signature(getattr(Nonlinearity, kind)).parameters
            assert all(params[key].kind in keyword for key in keys), kind
    assert [section["kind"] for section in REACTION_SECTIONS] == list(_REACTION_KEYS)
    rectangle = {"shape": "rectangle", "Lx": 1.0, "Ly": 1.0, "N": 2}
    for section in REACTION_SECTIONS:
        validate_config(solve_cfg(nonlinearity=section, domain=rectangle), "solve")
        assert nonlinearity_from_section(section).kind == section["kind"]


def test_build_initial_presets_and_lists():
    basis = build_domain_basis({"domain": {"shape": "interval", "L": 1.0, "N": 4}})
    zero = build_initial({}, basis)
    np.testing.assert_array_equal(zero, np.zeros(4))
    first = build_initial(
        {"initial": {"preset": "first_mode", "amplitude": 0.5}}, basis
    )
    np.testing.assert_array_equal(first, [0.5, 0.0, 0.0, 0.0])
    listed = build_initial({"initial": {"coefficients": [1.0, 2.0]}}, basis)
    np.testing.assert_array_equal(listed, [1.0, 2.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        build_initial({"initial": {"coefficients": [1.0] * 9}}, basis)


def test_linear_diagonal_needs_one_coefficient_per_mode(tmp_path):
    # a count other than domain.N used to pass validation and fail inside the
    # solve with a message that named no key
    two = {"kind": "linear_diagonal", "coeffs": [1.0, 2.0]}
    paths = {}
    for key in ("psi_path", "g_path", "kappa_path"):
        (tmp_path / key).write_text("")
        paths[key] = str(tmp_path / key)
    bad = [
        (solve_cfg(nonlinearity=two), "solve", "nonlinearity"),
        (solve_cfg(nonlinearity={"kind": "sum", "parts": [{"kind": "zero"}, two]}),
         "solve", "nonlinearity.parts[1]"),
        (solve_cfg(inverse=dict(paths, f1=two)), "inverse", "inverse.f1"),
    ]
    for cfg, command, where in bad:
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, command)
        assert list(info.value.problems) == [
            f"{where}.coeffs must have one entry per mode (domain.N = 4), got 2"
        ]
    four = dict(two, coeffs=[1.0] * 4)
    validate_config(solve_cfg(nonlinearity=four), "solve")
    validate_config(solve_cfg(inverse=dict(paths, f1=four)), "inverse")


def test_non_finite_integer_keys_are_reported():
    # int(inf) used to raise OverflowError out of validation (and int(nan)
    # ValueError), so the run ended in a traceback naming no key
    for value in (float("inf"), float("nan")):
        with pytest.raises(ConfigError) as info:
            validate_config(solve_cfg(grid={"T": 1.0, "N_t": value}), "solve")
        assert list(info.value.problems) == ["grid.N_t must be finite"]


def test_listed_numbers_are_checked_one_by_one():
    # each used to pass validation: null and Infinity then failed inside the
    # solve (exit 2), "x" failed to convert naming no key, true ran as 1.0,
    # and "false" ran the signed power
    diagonal = {"kind": "linear_diagonal"}
    power = {"kind": "polynomial_power", "power": 2.0}
    bad = [
        (dict(diagonal, coeffs=[1, None, 1, 1]),
         "nonlinearity.coeffs[1] must be a finite number, got None"),
        (dict(diagonal, coeffs=[1, 1, 1, float("inf")]),
         "nonlinearity.coeffs[3] must be a finite number, got inf"),
        (dict(diagonal, coeffs=[1, "x", 1, 1]),
         "nonlinearity.coeffs[1] must be a finite number, got 'x'"),
        (dict(diagonal, coeffs=[True, 1, 1, 1]),
         "nonlinearity.coeffs[0] must be a finite number, got True"),
        (dict(power, signed="false"),
         "nonlinearity.signed must be true or false"),
    ]
    for nonlinearity, problem in bad:
        with pytest.raises(ConfigError) as info:
            validate_config(solve_cfg(nonlinearity=nonlinearity), "solve")
        assert list(info.value.problems) == [problem]
    for signed in (True, False):
        cfg = solve_cfg(nonlinearity=dict(power, signed=signed))
        validate_config(cfg, "solve")
        assert build_nonlinearity(cfg).signed is signed


def test_initial_coefficients_are_checked_against_the_domain():
    # both used to fail only after the run had created its output directory
    bad = [
        ([0.1] * 5, "initial.coefficients has 5 entries, more than domain.N = 4"),
        ([float("nan")], "initial.coefficients[0] must be a finite number, got nan"),
    ]
    for coefficients, problem in bad:
        cfg = solve_cfg(initial={"coefficients": coefficients})
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, "solve")
        assert list(info.value.problems) == [problem]
    validate_config(solve_cfg(initial={"coefficients": [0.1] * 4}), "solve")
    validate_config(solve_cfg(initial={"coefficients": [0.1, 0.2]}), "solve")


def test_advection_chi_must_match_the_domain_dimension():
    rectangle = {"shape": "rectangle", "Lx": 1.0, "Ly": 1.0, "N": 4}
    scalar = {"kind": "advection_history", "chi": 0.3}
    bad = [
        solve_cfg(domain=rectangle, nonlinearity=scalar),
        solve_cfg(domain=rectangle, nonlinearity={
            "kind": "sum",
            "parts": [{"kind": "polynomial_power", "power": 2.0}, scalar],
        }),
        solve_cfg(nonlinearity={"kind": "advection_history", "chi": [0.3, 0.2]}),
    ]
    for cfg, where in zip(bad, ("nonlinearity.chi", "nonlinearity.parts[1].chi",
                                "nonlinearity.chi")):
        with pytest.raises(ConfigError) as info:
            validate_config(cfg, "solve")
        assert [p for p in info.value.problems if p.startswith(where)], info.value
    validate_config(solve_cfg(nonlinearity=scalar), "solve")
    validate_config(solve_cfg(nonlinearity={"kind": "advection_history", "chi": [0.3]}),
                    "solve")
    validate_config(
        solve_cfg(domain=rectangle,
                  nonlinearity={"kind": "advection_history", "chi": [0.3, 0.2]}),
        "solve",
    )
    # an invalid domain gives no dimension to check against
    with pytest.raises(ConfigError) as info:
        validate_config(solve_cfg(domain={"shape": "triangle", "N": 4},
                                  nonlinearity=scalar), "solve")
    assert not [p for p in info.value.problems if "chi" in p]
