"""Config loading, validation, overrides, and section builders."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rstokes import Interval, Rectangle
from rstokes.config import (
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
    for key in ("mu", "delta", "theta"):
        assert f"problem.{key} is not read; set nonlinearity.{key} instead" in (
            info.value.problems
        )
    assert len(info.value.problems) == 3
    validate_config(solve_cfg(nonlinearity={"kind": "zero", "mu": 0.5, "delta": 0.4}),
                    "solve")


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@settings(max_examples=200)
@given(
    mu=_maybe(st.floats(-0.5, 2.5)),
    delta=_maybe(st.floats(-0.5, 1.5)),
    theta=_maybe(st.floats(-1.0, 2.0)),
    where=st.sampled_from(["plain", "part", "sum"]),
)
def test_nonlinearity_orders_are_validated_as_the_constructor_checks(
    mu, delta, theta, where
):
    # mu >= 2 or delta = 1 used to pass validation and fail in Nonlinearity;
    # so did mu >= 1 + delta with the default theta
    orders = {k: v for k, v in (("mu", mu), ("delta", delta), ("theta", theta))
              if v is not None}
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


def test_inherited_orders_set_a_sum_s_default_theta():
    # the sum takes mu and delta from its first part but not its theta
    part = {"kind": "zero", "mu": 1.9, "delta": 0.5, "theta": 0.3}
    with pytest.raises(ConfigError) as info:
        validate_config(solve_cfg(nonlinearity={"kind": "sum", "parts": [part]}),
                        "solve")
    assert list(info.value.problems) == [
        "nonlinearity.theta defaults to 1 + delta - mu = -0.4 (mu = 1.9, "
        "delta = 0.5), which must be positive; lower nonlinearity.mu or set "
        "nonlinearity.theta"
    ]
    validate_config(
        solve_cfg(nonlinearity={"kind": "sum", "parts": [part], "theta": 0.3}),
        "solve",
    )


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


def test_load_config_requires_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"grid": {}}))
    assert load_config(str(path)) == {"grid": {}}


# -- builders -------------------------------------------------------------


def test_build_grid_uniform_and_graded():
    uniform = build_grid({"grid": {"T": 2.0, "N_t": 8}})
    assert uniform.is_uniform and uniform.horizon == 2.0
    graded = build_grid({"grid": {"T": 1.0, "N_t": 8, "grading": 2.0}})
    assert not graded.is_uniform
    assert graded.grading == 2.0
    # grading 1.0 means uniform, not a degenerate graded grid
    assert build_grid({"grid": {"T": 1.0, "N_t": 8, "grading": 1.0}}).is_uniform


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
    assert [p.kind for p in spec.parts] == ["power", "advection"]
    diag = build_nonlinearity(
        {"nonlinearity": {"kind": "linear_diagonal", "coeffs": [1.0, 2.0]}}
    )
    np.testing.assert_array_equal(diag.coeffs, [1.0, 2.0])


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
