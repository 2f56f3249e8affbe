"""End-to-end runs of the command line entry point against tmp dirs."""

import contextlib
import csv
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rstokes
from rstokes import (
    Interval,
    InverseProblem,
    MemoryKernel,
    TimeGrid,
    build_basis,
    forward_simulate,
    relaxation_batch,
)
from rstokes.cli import main
from rstokes.config import (build_domain_basis, build_grid, build_kernel,
                            validate_config)
from rstokes.csvio import write_csv, write_field_csv
from rstokes.kernels import DEFAULT_THETAS
from rstokes.volterra import STIFF_THRESHOLD, lag_weights


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def numeric_column(path, j):
    _, rows = read_table(path)
    return np.array([float(r[j]) for r in rows])


RELAX_CFG = {
    "grid": {"T": 1.0, "N_t": 256},
    "kernel": {"kind": "zero"},
    "problem": {"lambdas": [1.0, 4.0]},
}

SOLVE_CFG = {
    "domain": {"shape": "interval", "L": 1.0, "N": 4},
    "grid": {"T": 1.0, "N_t": 128},
    "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
    "nonlinearity": {"kind": "zero"},
    "history_kernel": {"kind": "zero"},
    "initial": {"preset": "first_mode", "amplitude": 0.1},
}


def test_relax_tabulates_profiles_and_properties(tmp_path):
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "run"
    assert main(["relax", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, _ = read_table(out / "omega.csv")
    assert header == ["t", "omega(lambda_1)", "omega(lambda_2)"]
    t = numeric_column(out / "omega.csv", 0)
    for j, lam in enumerate([1.0, 4.0], start=1):
        col = numeric_column(out / "omega.csv", j)
        assert np.max(np.abs(col - np.exp(-lam * t))) < 1e-4

    header, rows = read_table(out / "properties.csv")
    assert header == ["property", "lambda", "worst_margin", "pass"]
    assert all(r[3] == "true" for r in rows)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["subcommand"] == "relax"
    assert summary["status"] == "ok"
    assert set(summary["artifacts"]) == {"omega.csv", "properties.csv"}
    assert summary["certificates"]["relaxation_properties"] == "pass"
    assert summary["certificates"]["scheme"] in ("trapezoid", "rectangle")
    assert summary["wall_time_s"] > 0.0


def test_inverse_records_the_scheme_of_its_identification_table(tmp_path):
    # modes 2 and 3 carry no data, and only they are stiff at 32 steps: the
    # identification table keeps the trapezoid rule that the joint rule over
    # every mode would refuse, and the summary records the table's rule
    cfg = write_inverse_run(tmp_path, 3, 32, lambda t: 1.0 + t)
    out = tmp_path / "run"
    assert main(["inverse", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["scheme"] == "trapezoid"
    lams = build_basis(Interval(1.0), 3).eigenvalues
    kernel = MemoryKernel.exponential(1.0, 2.0)
    joint = relaxation_batch(kernel, lams, TimeGrid.uniform(1.0, 32))
    assert joint.scheme == "rectangle"


@pytest.mark.parametrize("command, n_steps, rule", [
    ("relax", 256, "trapezoid"), ("relax", 2, "rectangle"),
    ("solve", 1024, "trapezoid"), ("solve", 128, "rectangle"),
    ("verify", 1024, "trapezoid"), ("verify", 128, "rectangle"),
    ("inverse", 32, "trapezoid"), ("inverse", 8, "rectangle"),
])
def test_the_scheme_decision_records_the_rule_it_chose(tmp_path, command, n_steps, rule):
    # lambda_max times the first cell's left weight against the threshold,
    # from the one computation that picks the rule; the inverse run's is
    # over the modes that carry data (lambda_1 only: g = kappa = e_1)
    if command == "inverse":
        cfg = write_inverse_run(tmp_path, 3, n_steps, lambda t: 1.0 + t)
    else:
        payload = dict(RELAX_CFG if command == "relax" else SOLVE_CFG)
        payload["grid"] = {"T": 1.0, "N_t": n_steps}
        cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    decision = summary["scheme_decision"]
    assert decision["scheme"] == summary["certificates"]["scheme"]
    assert decision["threshold"] == STIFF_THRESHOLD
    assert decision["product"] == decision["lambda_max"] * decision["left_weight"]
    assert decision["scheme"] == (
        "trapezoid" if decision["product"] <= STIFF_THRESHOLD else "rectangle")
    assert decision["scheme"] == rule
    if command == "inverse":
        assert decision["lambda_max"] == build_basis(Interval(1.0), 3).eigenvalues[0]
    with open(cfg) as handle:
        config = json.load(handle)
    grid, kernel = build_grid(config), build_kernel(config)
    assert decision["left_weight"] == lag_weights(kernel.a_moments, grid).left[0]


def test_solve_zero_reaction_reduces_to_relaxation(tmp_path):
    cfg = write_cfg(tmp_path, SOLVE_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, _ = read_table(out / "states.csv")
    assert header[:3] == ["t", "||u||_L2", "||u||_Hmu"]
    assert header[3:] == ["coeff_1", "coeff_2", "coeff_3", "coeff_4"]

    # with no reaction the first coefficient is amplitude * relaxation profile;
    # the reference run must carry the full eigenvalue set so the quadrature
    # scheme choice (joint over all modes) matches the solver's table
    relax_cfg = write_cfg(
        tmp_path,
        {
            "grid": SOLVE_CFG["grid"],
            "kernel": SOLVE_CFG["kernel"],
            "problem": {"lambdas": [(n * np.pi) ** 2 for n in range(1, 5)]},
        },
        name="relax.json",
    )
    ref = tmp_path / "ref"
    assert main(["relax", "--config", relax_cfg, "--out", str(ref), "--quiet"]) == 0
    omega = numeric_column(ref / "omega.csv", 1)
    coeff = numeric_column(out / "states.csv", 3)
    np.testing.assert_allclose(coeff, 0.1 * omega, rtol=0.0, atol=1e-13)

    l2 = numeric_column(out / "states.csv", 1)
    np.testing.assert_allclose(l2, np.abs(coeff), rtol=0.0, atol=1e-13)

    header, rows = read_table(out / "holder.csv")
    assert header == ["quantity", "value"]
    values = dict(rows)
    assert float(values["seminorm"]) < np.inf
    assert values["gamma_in_range"] == "true"
    assert float(values["gamma"]) == 0.4

    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["picard_converged"] == "pass"
    assert summary["certificates"]["holder_seminorm_finite"] == "pass"
    assert "iterations.csv" in summary["artifacts"]
    # solve records the stepper it ran, the same one relax picks
    relax_summary = json.loads((ref / "summary.json").read_text())
    assert summary["certificates"]["scheme"] == relax_summary["certificates"]["scheme"]


def test_holder_gamma_range_follows_the_nonlinearity_delta(tmp_path):
    # gamma = 0.4 lies below delta / 2 = 0.45, outside (delta/2, 1/2)
    payload = dict(SOLVE_CFG, nonlinearity={"kind": "zero", "delta": 0.9},
                   problem={"gamma": 0.4})
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="outside"):
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    values = dict(read_table(out / "holder.csv")[1])
    assert values["gamma_in_range"] == "false"


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": 4},
            "grid": {"T": 1.0, "N_t": 128},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "verify": {"trials": 5},
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    first = (outs[0] / "verify_report.csv").read_bytes()
    second = (outs[1] / "verify_report.csv").read_bytes()
    assert first == second


def test_verify_report_layout(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": 4},
            "grid": {"T": 1.0, "N_t": 128},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "verify": {"trials": 5},
        },
    )
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, rows = read_table(out / "verify_report.csv")
    assert header == ["lemma_item", "t", "worst_margin", "pass/skip", "reason"]
    by_name = {r[0]: r for r in rows}
    for item in (
        "relaxation_positivity",
        "relaxation_monotone_lambda",
        "sol_op_bound",
        "conv_smoothing_l2",
        "derivative_decay",
        "conv_smoothing_singular",
        "conv_smoothing_reciprocal",
    ):
        assert item in by_name, item
    assert by_name["sol_op_bound"][3] == "pass"
    # the reciprocal-integrand row only applies to unbounded kernels
    assert by_name["conv_smoothing_reciprocal"][3] == "skip"
    assert by_name["relaxation_positivity"][4].startswith("worst at lambda=")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["conv_smoothing_l2"] == "pass"


def test_verify_tabulated_kernel_vanishing_at_zero(tmp_path):
    # m = 0 near t = 0 makes 1/(1*m) infinite there; the reciprocal row skips
    table = tmp_path / "m.csv"
    table.write_text("t,m\n0.5,0.0\n1.0,1.0\n")
    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": 4},
            "grid": {"T": 1.0, "N_t": 128},
            "kernel": {"kind": "tabulated", "table_path": str(table)},
            "verify": {"trials": 5},
        },
    )
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_table(out / "verify_report.csv")
    by_name = {r[0]: r for r in rows}
    assert by_name["conv_smoothing_reciprocal"][3] == "skip"


def test_certify_emits_one_row_per_theta_and_branch(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "grid": {"T": 1.0, "N_t": 512},
            "kernel": {"kind": "fractional", "m0": 1.0, "alpha": 0.5},
        },
    )
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, rows = read_table(out / "certificates.csv")
    assert header == ["certificate", "theta", "worst_value", "status"]
    assert len(rows) == 2 * len(DEFAULT_THETAS) + 1
    names = {r[0] for r in rows}
    assert names == {
        "completely_positive_s",
        "completely_positive_r",
        "unbounded_splitting",
    }
    assert all(r[3] == "pass" for r in rows)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["completely_positive"] == "pass"
    assert summary["certificates"]["unbounded_splitting"] == "pass"


def test_certify_splitting_not_applicable_for_bounded_kernel(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "grid": {"T": 1.0, "N_t": 256},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        },
    )
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_table(out / "certificates.csv")
    row = next(r for r in rows if r[0] == "unbounded_splitting")
    assert row[1] == "" and row[2] == ""
    assert row[3] == "not-applicable"


def write_inverse_run(tmp_path, n_modes, n_steps, p_true):
    # g = kappa = the first mode, xi = 0, and psi made by forward_simulate;
    # returns the config path
    basis = build_basis(Interval(1.0), n_modes)
    grid = TimeGrid.uniform(1.0, n_steps)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    g = np.eye(n_modes)[0]
    problem = InverseProblem(
        basis=basis, grid=grid, kernel=kernel, g=g, kappa=g, xi=np.zeros(n_modes),
    )
    _, psi = forward_simulate(problem, p_true(grid.nodes))

    write_field_csv(str(tmp_path / "g.csv"), basis.eigenvalues, g)
    write_field_csv(str(tmp_path / "kappa.csv"), basis.eigenvalues, g)
    write_csv(str(tmp_path / "psi.csv"), ["t", "psi"], zip(grid.nodes, psi))
    return write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": n_modes},
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "inverse": {
                "psi_path": str(tmp_path / "psi.csv"),
                "g_path": str(tmp_path / "g.csv"),
                "kappa_path": str(tmp_path / "kappa.csv"),
            },
        },
    )


@pytest.mark.parametrize(
    "override, message",
    [
        ("inverse.pairing_floor=1e6", "invisible to this measurement weight"),
        ('kernel={"kind": "fractional", "m0": 1.0, "alpha": 0.5}',
         "fails the integrability gate"),
        ("initial.coefficients=[1]", "disagrees with (xi, kappa)"),
    ],
    ids=["pairing_floor", "kernel_gate", "psi0_consistency"],
)
def test_inverse_rejects_its_problem_data_before_any_table(
    tmp_path, monkeypatch, capsys, override, message
):
    # reconstruct's exit-1 checks need no relaxation table, so a rejected run
    # must build none: here a table build ends the run in an AssertionError
    cfg = write_inverse_run(tmp_path, 2, 64, lambda t: 1.0 + t)

    def no_table(*args, **kwargs):
        raise AssertionError("a rejected inverse run built a relaxation table")

    monkeypatch.setattr("rstokes.resolvent.relaxation_batch", no_table)
    out = tmp_path / "run"
    argv = ["inverse", "--config", cfg, "--out", str(out), "--quiet", "--set", override]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_inverse_round_trip_through_files(tmp_path):
    def p_true(t):
        return 1.0 + 0.5 * np.sin(2.0 * np.pi * t)

    cfg = write_inverse_run(tmp_path, 2, 256, p_true)
    out = tmp_path / "run"
    assert main(["inverse", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, _ = read_table(out / "p_recovered.csv")
    assert header == ["t", "p"]
    t = numeric_column(out / "p_recovered.csv", 0)
    p_rec = numeric_column(out / "p_recovered.csv", 1)
    assert np.max(np.abs(p_rec - p_true(t))) < 5e-3

    residual = numeric_column(out / "residual.csv", 1)
    assert np.max(np.abs(residual)) < 1e-4

    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificates"]["reconstruction_converged"] == "pass"
    assert summary["certificates"]["pairing"] == pytest.approx(1.0, rel=1e-6)


def test_invalid_config_exits_1_with_all_problems(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"grid": {"T": -1.0}, "kernel": {"kind": "warp"}},
    )
    out = tmp_path / "never"
    code = main(["relax", "--config", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "grid.T" in err and "kernel.kind" in err
    assert not out.exists()

    # a graded solve is refused before any work: the time grid is uniform
    graded = dict(SOLVE_CFG, grid={"T": 1.0, "N_t": 64, "grading": 2.0})
    cfg = write_cfg(tmp_path, graded, name="graded.json")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid.grading" in err and "grid.N_t" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["relax", "certify", "verify", "solve", "inverse"])
def test_grid_grading_exits_1_before_any_output(tmp_path, capsys, command):
    # the one problem of each config is the grading key, which every command
    # refuses, naming the uniform alternative
    payload = dict(SOLVE_CFG, grid={"T": 1.0, "N_t": 64})
    if command == "inverse":
        basis = build_basis(Interval(1.0), 4)
        g = [1.0, 0.0, 0.0, 0.0]
        write_field_csv(str(tmp_path / "g.csv"), basis.eigenvalues, g)
        write_field_csv(str(tmp_path / "kappa.csv"), basis.eigenvalues, g)
        t = np.linspace(0.0, 1.0, 65)
        write_csv(str(tmp_path / "psi.csv"), ["t", "psi"], zip(t, 1.0 - np.exp(-t)))
        payload["inverse"] = {key + "_path": str(tmp_path / f"{key}.csv")
                              for key in ("psi", "g", "kappa")}
    validate_config(payload, command)
    payload["grid"] = {"T": 1.0, "N_t": 64, "grading": 2.0}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "grid.grading" in err and "grid.N_t" in err
    assert not out.exists()


def test_nonlinearity_orders_outside_their_ranges_exit_1_before_any_output(
    tmp_path, capsys
):
    # both used to pass validation; the run then created its output directory
    # and died on mu alone
    payload = dict(SOLVE_CFG, nonlinearity={"kind": "zero", "mu": 2.5, "delta": 1.0})
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "nonlinearity.mu" in err and "nonlinearity.delta" in err
    assert not out.exists()


def test_linear_diagonal_coefficient_count_exits_1_before_any_output(
    tmp_path, capsys
):
    payload = dict(SOLVE_CFG, nonlinearity={"kind": "linear_diagonal",
                                            "coeffs": [1.0, 2.0]})
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "nonlinearity.coeffs must have one entry per mode (domain.N = 4), got 2" in err
    assert not out.exists()


@pytest.mark.parametrize("section, value, key", [
    ("nonlinearity", {"kind": "linear_diagonal", "coeffs": [1, None, 1, 1]},
     "nonlinearity.coeffs[1]"),
    ("nonlinearity", {"kind": "linear_diagonal", "coeffs": [1, 1, 1, float("inf")]},
     "nonlinearity.coeffs[3]"),
    ("nonlinearity", {"kind": "linear_diagonal", "coeffs": [True, "x", 1, 1]},
     "nonlinearity.coeffs[0]"),
    ("nonlinearity", {"kind": "polynomial_power", "power": 2.0, "signed": "false"},
     "nonlinearity.signed"),
    ("initial", {"coefficients": [0.1] * 5}, "initial.coefficients"),
    ("initial", {"coefficients": [float("nan")]}, "initial.coefficients[0]"),
])
def test_bad_listed_entries_exit_1_before_any_output(
    tmp_path, capsys, section, value, key
):
    cfg = write_cfg(tmp_path, dict(SOLVE_CFG, **{section: value}))
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verify, key", [
    ({"tol": "x"}, "verify.tol"),
    ({"tol": -1}, "verify.tol"),
    ([], "section 'verify'"),
])
def test_relax_validates_the_verify_section_it_reads(tmp_path, capsys, verify, key):
    # relax reads verify.tol; unchecked, "x" and [] ended in a traceback after
    # omega.csv was written, and -1 failed every property row
    cfg = write_cfg(tmp_path, dict(RELAX_CFG, verify=verify))
    out = tmp_path / "never"
    assert main(["relax", "--config", cfg, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_runtime_failure_exits_1_without_summary(tmp_path, capsys):
    # orthogonal weights make the measurement pairing vanish mid-run
    basis = build_basis(Interval(1.0), 2)
    grid = TimeGrid.uniform(1.0, 64)
    write_field_csv(str(tmp_path / "g.csv"), basis.eigenvalues, [1.0, 0.0])
    write_field_csv(str(tmp_path / "kappa.csv"), basis.eigenvalues, [0.0, 1.0])
    write_csv(
        str(tmp_path / "psi.csv"), ["t", "psi"],
        zip(grid.nodes, np.zeros(grid.nodes.size)),
    )
    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": 2},
            "grid": {"T": 1.0, "N_t": 64},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "inverse": {
                "psi_path": str(tmp_path / "psi.csv"),
                "g_path": str(tmp_path / "g.csv"),
                "kappa_path": str(tmp_path / "kappa.csv"),
            },
        },
    )
    out = tmp_path / "run"
    code = main(["inverse", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    assert "invisible to this measurement weight" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_a_refused_allocation_exits_1_without_summary(tmp_path, capsys):
    # 10**18 steps need 8e18 bytes of nodes, beyond any 64-bit address space:
    # the allocation is refused at once, and nothing is allocated
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "run"
    argv = ["relax", "--config", cfg, "--out", str(out), "--quiet",
            "--set", f"grid.N_t={10**18}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert not (out / "summary.json").exists()


def _non_finite_inputs(command, tmp_path):
    """A config for command whose file input holds one nan sample, and the
    path:line that holds it."""
    if command != "inverse":
        table = tmp_path / "m.csv"
        table.write_text("t,m\n0.5,1.0\n1.0,nan\n")
        kernel = {"kind": "tabulated", "table_path": str(table)}
        return write_cfg(tmp_path, dict(RELAX_CFG, kernel=kernel)), "m.csv:3"
    basis = build_basis(Interval(1.0), 2)
    grid = TimeGrid.uniform(1.0, 64)
    g = [1.0, 0.0]
    psi = 1.0 - np.exp(-grid.nodes)
    psi[10] = np.nan
    write_field_csv(str(tmp_path / "g.csv"), basis.eigenvalues, g)
    write_field_csv(str(tmp_path / "kappa.csv"), basis.eigenvalues, g)
    write_csv(str(tmp_path / "psi.csv"), ["t", "psi"], zip(grid.nodes, psi))
    payload = {
        "domain": {"shape": "interval", "L": 1.0, "N": 2},
        "grid": {"T": 1.0, "N_t": 64},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "inverse": {key + "_path": str(tmp_path / f"{key}.csv")
                    for key in ("psi", "g", "kappa")},
    }
    return write_cfg(tmp_path, payload), "psi.csv:12"


@pytest.mark.parametrize("command", ["relax", "certify", "inverse"])
def test_non_finite_file_samples_exit_1_without_summary(tmp_path, capsys, command):
    # a nan sample used to be read: relax wrote nan rows with status ok,
    # certify wrote nan minima, inverse diverged and exited 2
    cfg, where = _non_finite_inputs(command, tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert where in err and "must be finite" in err
    assert not (out / "summary.json").exists()


def test_unparsable_file_sample_exits_1_naming_path_and_line(tmp_path, capsys):
    # the bare "could not convert string to float" named no file
    table = tmp_path / "m.csv"
    table.write_text("t,m\n0.5,1.0\n1.0,abc\n")
    kernel = {"kind": "tabulated", "table_path": str(table)}
    cfg = write_cfg(tmp_path, dict(RELAX_CFG, kernel=kernel))
    out = tmp_path / "run"
    assert main(["relax", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "m.csv:3: could not convert string to float: 'abc'" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("where", ["regular_file", "under_regular_file"])
def test_an_out_path_that_is_no_directory_exits_1_without_summary(
    tmp_path, capsys, where
):
    # os.makedirs raised FileExistsError or NotADirectoryError: a traceback
    cfg = write_cfg(tmp_path, RELAX_CFG)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if where == "regular_file" else blocker / "run"
    assert main(["relax", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("name", ["properties.csv", "summary.json"])
def test_an_output_file_that_is_a_directory_exits_1_without_summary(
    tmp_path, capsys, name
):
    # os.replace in write_csv (or the summary's open) raised IsADirectoryError
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert main(["relax", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert (out / name).is_dir() and not (out / "summary.json").is_file()
    assert not [p.name for p in out.iterdir() if p.suffix == ".tmp"]


def _rerun_onto_a_blocked_artifact(tmp_path):
    """relax into o3 at 64 steps, make o3/properties.csv a directory, then
    relax into o3 again at 32 steps; returns o3 and the second exit code."""
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "o3"
    argv = ["relax", "--config", cfg, "--out", str(out), "--quiet"]
    assert main([*argv, "--grid", "64"]) == 0
    (out / "properties.csv").unlink()
    (out / "properties.csv").mkdir()
    return out, main([*argv, "--grid", "32"])


def test_an_exit_1_leaves_no_summary_of_an_earlier_run(tmp_path, capsys):
    # the first run's summary said "ok" next to the second run's omega.csv
    out, code = _rerun_onto_a_blocked_artifact(tmp_path)
    assert code == 1
    assert len(read_table(out / "omega.csv")[1]) == 33
    assert not (out / "summary.json").exists()


def test_an_unwritable_artifact_is_named_not_its_temporary_file(tmp_path, capsys):
    # os.replace's error named the .tmp file first
    _, code = _rerun_onto_a_blocked_artifact(tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "o3/properties.csv" in err
    assert ".tmp" not in err


def test_a_kernel_table_path_that_is_a_directory_is_listed_with_the_others(
    tmp_path, capsys
):
    # it passed the exists check, then read_series_csv raised IsADirectoryError
    kernel = {"kind": "tabulated", "table_path": str(tmp_path)}
    cfg = write_cfg(tmp_path, dict(RELAX_CFG, kernel=kernel))
    out = tmp_path / "run"
    argv = ["relax", "--config", cfg, "--out", str(out), "--quiet",
            "--set", "grid.N_t=1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"kernel.table_path is not a regular file: {tmp_path}" in err
    assert "grid.N_t" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["psi_path", "g_path", "kappa_path", "psi_prime_path"])
def test_an_inverse_path_that_is_a_directory_exits_1_before_any_output(
    tmp_path, capsys, key
):
    cfg = write_inverse_run(tmp_path, 2, 64, lambda t: 1.0 + t)
    out = tmp_path / "run"
    argv = ["inverse", "--config", cfg, "--out", str(out), "--quiet",
            "--set", f"inverse.{key}={json.dumps(str(tmp_path))}"]
    assert main(argv) == 1
    assert f"inverse.{key} is not a regular file" in capsys.readouterr().err
    assert not out.exists()


def test_nonconvergence_exits_2_but_keeps_artifacts(tmp_path):
    payload = dict(SOLVE_CFG)
    payload["nonlinearity"] = {"kind": "polynomial_power", "power": 2.0,
                               "scale": 0.5, "mu": 1.0, "delta": 0.5}
    payload["problem"] = {"max_iter": 1, "tol": 1e-12}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "non-convergence"
    assert summary["certificates"]["picard_converged"] == "fail"
    assert summary["certificates"]["scheme"] in ("trapezoid", "rectangle")
    assert summary["artifacts"] == ["iterations.csv"]
    _, rows = read_table(out / "iterations.csv")
    assert len(rows) == 1


def test_diverging_solve_exits_2_with_artifacts(tmp_path, capsys):
    # the README solve config driven far outside the small-data regime
    payload = {
        "domain": {"shape": "interval", "L": 1.0, "N": 8},
        "grid": {"T": 1.0, "N_t": 1024},
        "kernel": {"kind": "fractional", "m0": 1.0, "alpha": 0.5},
        "nonlinearity": {"kind": "polynomial_power", "power": 3.0, "scale": 50.0},
        "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
        "initial": {"preset": "first_mode", "amplitude": 5.0},
        "problem": {"tol": 1e-10, "gamma": 0.4},
    }
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    # the overflowed residual ends the solve: no numpy warning on stderr
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: solver did not converge: iteration diverged at sweep 6: the "
        "residual is inf"
    ]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "non-convergence"
    assert summary["artifacts"] == ["iterations.csv"]
    _, rows = read_table(out / "iterations.csv")
    residuals = [float(r[1]) for r in rows]
    assert len(residuals) >= 2 and residuals[1] > residuals[0]
    # the last residual overflowed: the summary stays strict JSON
    assert residuals[-1] == np.inf and summary["picard"]["residuals"][-1] is None
    json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)


def test_overflowing_linear_diagonal_reaction_exits_2_naming_the_mode(tmp_path, capsys):
    # the products overflow in the first sweep: one diagnostic, no numpy warning
    payload = dict(SOLVE_CFG)
    payload["grid"] = {"T": 1.0, "N_t": 64}
    payload["nonlinearity"] = {"kind": "linear_diagonal", "coeffs": [1e300] * 4}
    payload["initial"] = {"preset": "first_mode", "amplitude": 1e10}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: solver did not converge: iteration diverged at sweep 1: linear "
        "diagonal reaction produced a non-finite coefficient in mode 1 of 4 "
        "(time row 0)"
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "non-convergence"
    assert summary["artifacts"] == ["iterations.csv"]
    assert (out / "iterations.csv").is_file()


POWER = {"kind": "polynomial_power", "power": 2.0}
ADVECTION = {"kind": "advection_history", "chi": [0.5]}
EXPONENTIAL = {"kind": "exponential", "amplitude": 1.0, "decay": 1.0}


@pytest.mark.parametrize(
    "nonlinearity, history_kernel, history",
    [
        (POWER, EXPONENTIAL, False),
        (ADVECTION, EXPONENTIAL, True),
        ({"kind": "sum", "parts": [POWER, ADVECTION]}, EXPONENTIAL, True),
        ({"kind": "sum", "parts": [POWER, ADVECTION]}, {"kind": "zero"}, False),
    ],
)
@pytest.mark.parametrize("max_iter", [2, 200])
def test_solve_summary_records_the_picard_sweeps(
    tmp_path, nonlinearity, history_kernel, history, max_iter
):
    payload = dict(SOLVE_CFG, nonlinearity=nonlinearity, history_kernel=history_kernel,
                   problem={"tol": 1e-12, "max_iter": max_iter})
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == (2 if max_iter == 2 else 0)

    summary = json.loads((out / "summary.json").read_text())
    picard = summary["picard"]
    assert "picard" not in summary["certificates"]
    assert picard["history_convolution"] is history
    residuals = numeric_column(out / "iterations.csv", 1)
    assert picard["residuals"] == residuals.tolist()
    assert len(residuals) >= 2
    assert picard["ratios"] == [b / a for a, b in zip(residuals, residuals[1:])]
    assert all(r < 1.0 for r in picard["ratios"])


def _run(command, payload, tmp):
    cfg = os.path.join(tmp, "cfg.json")
    with open(cfg, "w") as handle:
        json.dump(payload, handle)
    out = os.path.join(tmp, "run")
    code = main([command, "--config", cfg, "--out", out, "--quiet"])
    with open(os.path.join(out, "summary.json")) as handle:
        summary = json.load(handle)
    return code, out, summary


def _reaction(kind, ndim, power, scale, chi, n_modes=1, magnitude=0):
    if kind == "linear_diagonal":
        return {"kind": "linear_diagonal", "coeffs": [scale * 10.0**magnitude] * n_modes}
    if kind == "power":
        return {"kind": "polynomial_power", "power": power, "scale": scale}
    if kind == "advection":
        return {"kind": "advection_history", "chi": chi[:ndim]}
    return {"kind": "sum", "parts": [_reaction("power", ndim, power, scale, chi),
                                     _reaction("advection", ndim, power, scale, chi)]}


@given(
    rectangle=st.booleans(),
    n_modes=st.integers(1, 12),
    n_steps=st.integers(2, 64),
    kind=st.sampled_from(["power", "advection", "sum", "linear_diagonal"]),
    power=st.floats(1.1, 4.0),
    scale=st.floats(-50.0, 50.0),
    magnitude=st.integers(0, 300),
    chi=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
    amplitude=st.floats(-1e3, 1e3),
    max_iter=st.integers(1, 40),
)
def test_solve_exits_0_or_2_with_a_summary(
    rectangle, n_modes, n_steps, kind, power, scale, magnitude, chi, amplitude, max_iter
):
    # from the small-data regime up to diverging amplitudes: a valid config
    # ends in a converged run or a non-convergence exit, never a traceback
    # and never a numpy warning (the suite turns those into errors); the
    # linear diagonal coefficients reach scale * 1e300
    domain = (
        {"shape": "rectangle", "Lx": 1.0, "Ly": 1.5, "N": n_modes}
        if rectangle
        else {"shape": "interval", "L": 1.0, "N": n_modes}
    )
    payload = {
        "domain": domain,
        "grid": {"T": 1.0, "N_t": n_steps},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "nonlinearity": _reaction(kind, 2 if rectangle else 1, power, scale, chi,
                                  n_modes, magnitude),
        "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
        "initial": {"preset": "first_mode", "amplitude": amplitude},
        "problem": {"tol": 1e-10, "max_iter": max_iter},
    }
    with tempfile.TemporaryDirectory() as tmp:
        code, out, summary = _run("solve", payload, tmp)
        residuals = numeric_column(os.path.join(out, "iterations.csv"), 1)
    assert code in (0, 2)
    assert summary["status"] == ("ok" if code == 0 else "non-convergence")
    # the Picard record, on both exits, matches iterations.csv; a diverged
    # sweep's infinite residual is null there (strict JSON has no inf)
    picard = summary["picard"]
    assert picard["history_convolution"] == (kind in ("advection", "sum"))
    recorded = np.array([np.nan if r is None else r for r in picard["residuals"]])
    finite = np.where(np.isfinite(residuals), residuals, np.nan)
    assert np.array_equal(recorded, finite, equal_nan=True)
    assert len(picard["ratios"]) == max(len(residuals) - 1, 0)


def _kernel_section(kind, m0, shape, tmp):
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "constant":
        return {"kind": "constant", "m0": m0}
    if kind == "fractional":
        return {"kind": "fractional", "m0": m0, "alpha": shape}
    if kind == "exponential":
        return {"kind": "exponential", "m0": m0, "decay": 20.0 * shape}
    # a two-point nonincreasing table
    table = os.path.join(tmp, "m.csv")
    with open(table, "w") as handle:
        handle.write(f"t,m\n{shape},{m0}\n1.0,{m0 * shape}\n")
    return {"kind": "tabulated", "table_path": table}


@given(
    kind=st.sampled_from(MemoryKernel.KINDS),
    m0=st.floats(0.01, 100.0),
    shape=st.floats(0.05, 0.95),
    rectangle=st.booleans(),
    n_modes=st.integers(1, 8),
    n_steps=st.integers(2, 64),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**31),
    mu=st.floats(0.0, 2.0),
    delta=st.floats(0.05, 1.0, exclude_max=True),
)
def test_verify_exits_0_with_a_matching_summary(
    kind, m0, shape, rectangle, n_modes, n_steps, trials, seed, mu, delta
):
    domain = (
        {"shape": "rectangle", "Lx": 1.0, "Ly": 1.5, "N": n_modes}
        if rectangle
        else {"shape": "interval", "L": 1.0, "N": n_modes}
    )
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "domain": domain,
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": _kernel_section(kind, m0, shape, tmp),
            "verify": {"trials": trials, "seed": seed, "mu": mu, "delta": delta},
        }
        with np.errstate(all="ignore"):
            code, out, summary = _run("verify", payload, tmp)
        _, rows = read_table(os.path.join(out, "verify_report.csv"))
    assert code == 0
    assert summary["subcommand"] == "verify" and summary["status"] == "ok"
    assert summary["artifacts"] == ["verify_report.csv"]
    scheme = summary["scheme_decision"]["scheme"]
    assert summary["certificates"] == {**{r[0]: r[3] for r in rows}, "scheme": scheme}
    labels = [r[0] for r in rows]
    assert labels[-5:] == [
        "sol_op_bound",
        "conv_smoothing_l2",
        "derivative_decay",
        "conv_smoothing_singular",
        "conv_smoothing_reciprocal",
    ]


@given(
    kind=st.sampled_from(MemoryKernel.KINDS),
    m0=st.floats(0.01, 100.0),
    shape=st.floats(0.05, 0.95),
    n_steps=st.integers(2, 64),
    thetas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
)
def test_certify_exits_0_with_a_matching_summary(kind, m0, shape, n_steps, thetas):
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": _kernel_section(kind, m0, shape, tmp),
            "certify": {"thetas": thetas},
        }
        with np.errstate(all="ignore"):
            code, out, summary = _run("certify", payload, tmp)
        _, rows = read_table(os.path.join(out, "certificates.csv"))
    assert code == 0
    assert summary["subcommand"] == "certify" and summary["status"] == "ok"
    assert summary["artifacts"] == ["certificates.csv"]
    assert len(rows) == 2 * len(thetas) + 1
    positive = all(r[3] == "pass" for r in rows[:-1])
    certs = summary["certificates"]
    assert certs["completely_positive"] == ("pass" if positive else "fail")
    assert rows[-1][0] == "unbounded_splitting"
    assert certs["unbounded_splitting"] == rows[-1][3]


@given(
    kind=st.sampled_from(MemoryKernel.KINDS),
    m0=st.floats(0.01, 100.0),
    shape=st.floats(0.05, 0.95),
    source=st.sampled_from(["lambdas", "interval", "rectangle"]),
    lambdas=st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=6),
    n_modes=st.integers(1, 6),
    n_steps=st.integers(2, 64),
)
def test_relax_exits_0_with_a_matching_summary(
    kind, m0, shape, source, lambdas, n_modes, n_steps
):
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": _kernel_section(kind, m0, shape, tmp),
        }
        if source == "lambdas":
            payload["problem"] = {"lambdas": sorted(lambdas)}
            lams = sorted(lambdas)
        else:
            payload["domain"] = (
                {"shape": "rectangle", "Lx": 1.0, "Ly": 1.5, "N": n_modes}
                if source == "rectangle"
                else {"shape": "interval", "L": 1.0, "N": n_modes}
            )
            lams = build_domain_basis(payload).eigenvalues
        table = relaxation_batch(build_kernel(payload), lams, build_grid(payload))
        with np.errstate(all="ignore"):
            code, out, summary = _run("relax", payload, tmp)
        omega = np.loadtxt(os.path.join(out, "omega.csv"), delimiter=",", skiprows=1,
                           ndmin=2)
        _, rows = read_table(os.path.join(out, "properties.csv"))
    assert code == 0
    assert summary["subcommand"] == "relax" and summary["status"] == "ok"
    assert summary["artifacts"] == ["omega.csv", "properties.csv"]
    assert summary["certificates"]["scheme"] == table.scheme
    np.testing.assert_array_equal(omega[:, 1:], table.omega)
    passed = all(r[3] == "true" for r in rows)
    assert summary["certificates"]["relaxation_properties"] == (
        "pass" if passed else "fail"
    )


@given(
    kind=st.sampled_from(MemoryKernel.KINDS),
    m0=st.floats(0.01, 10.0),
    shape=st.floats(0.05, 0.95),
    n_modes=st.integers(1, 6),
    n_steps=st.integers(2, 64),
    g=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    kappa=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    xi=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    phase=st.floats(0.0, 2.0 * np.pi),
    analytic_slope=st.booleans(),
    max_iter=st.integers(1, 40),
    reaction=st.sampled_from([None, "linear_diagonal", "polynomial_power"]),
    rate=st.floats(-1.0, 1.0),
)
def test_inverse_exits_0_or_2_with_a_matching_summary(
    kind, m0, shape, n_modes, n_steps, g, kappa, xi, phase, analytic_slope, max_iter,
    reaction, rate,
):
    # a measurement made by forward_simulate on the same grid; exit 1 is
    # allowed only for the two documented problem-data rejections.  A state
    # reaction f1 takes the Picard sweeps, capped at max_iter; without one p
    # comes from one direct solve, and max_iter is not read
    g, kappa, xi = (np.array(v[:n_modes]) for v in (g, kappa, xi))
    f1 = {
        None: None,
        "linear_diagonal": {"kind": "linear_diagonal", "coeffs": [rate] * n_modes},
        "polynomial_power": {"kind": "polynomial_power", "power": 3.0, "scale": rate},
    }[reaction]
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "domain": {"shape": "interval", "L": 1.0, "N": n_modes},
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": _kernel_section(kind, m0, shape, tmp),
            "initial": {"coefficients": xi.tolist()},
            "inverse": {"max_iter": max_iter},
        }
        if f1 is not None:
            payload["inverse"]["f1"] = f1
        basis, grid = build_domain_basis(payload), build_grid(payload)
        problem = InverseProblem(
            basis=basis, grid=grid, kernel=build_kernel(payload), g=g, kappa=kappa,
            xi=xi,
        )
        with np.errstate(all="ignore"):
            _, psi = forward_simulate(problem, 1.0 + np.sin(2.0 * np.pi * grid.nodes
                                                            + phase))
        paths = {k: os.path.join(tmp, f"{k}.csv")
                 for k in ("psi", "psi_prime", "g", "kappa")}
        write_csv(paths["psi"], ["t", "psi"], zip(grid.nodes, psi))
        write_field_csv(paths["g"], basis.eigenvalues, g)
        write_field_csv(paths["kappa"], basis.eigenvalues, kappa)
        for key in ("psi", "g", "kappa"):
            payload["inverse"][f"{key}_path"] = paths[key]
        if analytic_slope:
            write_csv(paths["psi_prime"], ["t", "psi_prime"],
                      zip(grid.nodes, np.gradient(psi, grid.nodes)))
            payload["inverse"]["psi_prime_path"] = paths["psi_prime"]
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as handle:
            json.dump(payload, handle)
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stderr(err):
            code = main(["inverse", "--config", cfg, "--out", out, "--quiet"])
        summary_path = os.path.join(out, "summary.json")
        if code == 1:
            assert not os.path.exists(summary_path)
            assert ("invisible to this measurement weight" in err.getvalue()
                    or "fails the integrability gate" in err.getvalue()), err.getvalue()
            return
        with open(summary_path) as handle:
            summary = json.load(handle)
        certs = summary["certificates"]
        picard = summary["picard"]
        _, iterations = read_table(os.path.join(out, "iterations.csv"))
        assert len(picard["residuals"]) == len(iterations)
        if f1 is None:
            assert picard["method"] == "direct"
            assert iterations == []
        else:
            assert picard["method"] == "sweeps"
            assert "fixed_point_defect" not in picard
            assert 1 <= len(iterations) <= max_iter
        # recorded before the solve, so exit 2 keeps them too
        assert certs["scheme"] in ("trapezoid", "rectangle")
        assert summary["scheme_decision"]["scheme"] == certs["scheme"]
        if code == 2:
            assert summary["status"] == "non-convergence"
            assert summary["artifacts"] == ["iterations.csv"]
            assert certs["reconstruction_converged"] == "fail"
            if f1 is None:
                assert picard["fixed_point_defect"] is None
            return
        assert code == 0
        assert summary["status"] == "ok"
        assert summary["artifacts"] == ["p_recovered.csv", "residual.csv",
                                        "iterations.csv"]
        # a direct p that is not finite exits 2
        if f1 is None:
            assert np.all(np.isfinite(
                numeric_column(os.path.join(out, "p_recovered.csv"), 1)))
        assert certs["reconstruction_converged"] == "pass"
        assert certs["pairing"] == float(g @ kappa)
        residual = numeric_column(os.path.join(out, "residual.csv"), 1)
        assert certs["max_measurement_residual"] == float(np.max(np.abs(residual)))


def test_inverse_exits_2_when_the_direct_solve_is_not_finite(tmp_path, capsys):
    # psi' = 1e308 overflows the direct solve from row 1 on: exit 2 with the
    # exit-2 record, never NaNs with exit 0
    cfg = write_inverse_run(tmp_path, 2, 32, lambda t: 1.0 + t)
    nodes = TimeGrid.uniform(1.0, 32).nodes
    write_csv(str(tmp_path / "psi_prime.csv"), ["t", "psi_prime"],
              zip(nodes, np.full(nodes.size, 1e308)))
    with open(cfg) as handle:
        payload = json.load(handle)
    payload["inverse"]["psi_prime_path"] = str(tmp_path / "psi_prime.csv")
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "run"
    assert main(["inverse", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "non-finite value at time row 1" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "non-convergence"
    assert summary["artifacts"] == ["iterations.csv"]
    assert summary["certificates"]["reconstruction_converged"] == "fail"
    assert summary["picard"] == {"method": "direct", "residuals": [], "ratios": [],
                                 "history_convolution": False,
                                 "fixed_point_defect": None}
    assert read_table(out / "iterations.csv") == (["iteration", "residual"], [])
    assert not (out / "p_recovered.csv").exists()


def test_every_exported_name_resolves():
    star = {}
    exec("from rstokes import *", star)
    assert set(rstokes.__all__) <= set(star)
    for info in pkgutil.iter_modules(rstokes.__path__):
        module = importlib.import_module(f"rstokes.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"rstokes.{info.name}.{name}"


def test_the_lazy_package_resolves_each_name_on_access():
    for name in rstokes.__all__:
        assert getattr(rstokes, name) is not None, name
    assert set(rstokes.__all__) <= set(dir(rstokes))
    assert rstokes.relaxation_batch is importlib.import_module(
        "rstokes.relaxation").relaxation_batch
    # looked up on each access, never stored: a patched module attribute shows
    assert "relaxation_batch" not in vars(rstokes)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rstokes, "no_such_name")
    with pytest.raises(ImportError):
        exec("from rstokes import no_such_name", {})


# the rstokes submodules a fresh process holds after importing rstokes.cli and
# after running each command; verify alone draws in numpy.random, whose
# import of secrets loads OpenSSL through _hashlib
_CERTIFY_MODULES = {"cli", "config", "csvio", "grids", "kernels", "volterra"}
_RELAX_MODULES = _CERTIFY_MODULES | {"relaxation", "spectral"}
_VERIFY_MODULES = _RELAX_MODULES | {"resolvent"}
_SOLVE_MODULES = _VERIFY_MODULES | {"nonlinear"}
COMMAND_MODULES = {
    "certify": _CERTIFY_MODULES,
    "relax": _RELAX_MODULES,
    "verify": _VERIFY_MODULES,
    "solve": _SOLVE_MODULES,
    "inverse": _SOLVE_MODULES | {"inverse"},
}


def _loaded_modules(code):
    """The names in sys.modules after a fresh interpreter runs code."""
    src = os.path.dirname(os.path.dirname(rstokes.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport sys; print(' '.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    heavy = {"scipy.signal", "scipy.integrate", "scipy.special", "scipy.fft", "scipy.stats"}
    assert not heavy & set(loaded)
    # scipy is a test dependency only: the package itself never imports it
    assert "scipy" not in loaded
    return set(loaded)


def _layers(loaded):
    return {name.partition(".")[2] for name in loaded if name.startswith("rstokes.")}


def test_cli_import_skips_heavy_scipy_subpackages():
    loaded = _loaded_modules("import rstokes.cli")
    assert _layers(loaded) == _CERTIFY_MODULES
    assert "_hashlib" not in loaded


def _tiny_config(command, tmp_path):
    cfg = {
        "domain": {"shape": "interval", "L": 1.0, "N": 2},
        "grid": {"T": 1.0, "N_t": 16},
        "kernel": {"kind": "fractional", "m0": 1.0, "alpha": 0.5},
        "verify": {"trials": 2},
    }
    if command == "solve":
        cfg.update({key: SOLVE_CFG[key]
                    for key in ("nonlinearity", "history_kernel", "initial")})
    if command == "inverse":
        nodes = np.linspace(0.0, 1.0, 17)
        paths = {key: str(tmp_path / f"{key}.csv") for key in ("psi", "g", "kappa")}
        write_csv(paths["psi"], ["t", "psi"], zip(nodes, np.zeros_like(nodes)))
        for key in ("g", "kappa"):
            write_field_csv(paths[key], [1.0, 4.0], [1.0, 0.0])
        cfg["inverse"] = {f"{key}_path": path for key, path in paths.items()}
        cfg["kernel"] = SOLVE_CFG["kernel"]  # |m'| must be integrable
    return write_cfg(tmp_path, cfg)


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_layers(command, tmp_path):
    argv = [command, "--config", _tiny_config(command, tmp_path),
            "--out", str(tmp_path / "run"), "--quiet"]
    loaded = _loaded_modules(
        f"import rstokes.cli\nassert rstokes.cli.main({argv!r}) == 0"
    )
    assert _layers(loaded) == COMMAND_MODULES[command]
    assert ("_hashlib" in loaded) == (command == "verify")


def test_set_overrides_and_grid_shortcut(tmp_path):
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "run"
    code = main(
        ["relax", "--config", cfg, "--out", str(out), "--quiet",
         "--set", "grid.N_t=64", "--grid", "32"],
    )
    assert code == 0
    # the shortcut is applied after --set, so it wins
    _, rows = read_table(out / "omega.csv")
    assert len(rows) == 33


def test_out_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, RELAX_CFG)
    target = tmp_path / "from_env"
    monkeypatch.setenv("RSTOKES_OUT", str(target))
    assert main(["relax", "--config", cfg, "--quiet"]) == 0
    assert (target / "summary.json").exists()


def test_quiet_flag_silences_progress(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RELAX_CFG)
    out = tmp_path / "run"
    assert main(["relax", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["relax", "--config", cfg, "--out", str(out)]) == 0
    loud = capsys.readouterr().out
    assert "omega.csv" in loud and "status: ok" in loud


HELP = {
    "relax": "tabulate relaxation profiles and their property report",
    "solve": "run the fixed-point solver and emit state norms",
    "verify": "check the operator-family bounds on random trials",
    "certify": "certify kernel hypotheses (complete positivity, splitting)",
    "inverse": "recover the source intensity from a measurement series",
}


def _help(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    # argparse wraps to the terminal width: compare with the breaks undone
    return " ".join(capsys.readouterr().out.split())


def test_help_lists_each_command_with_its_one_line_help(capsys):
    text = _help(["--help"], capsys)
    assert "{relax,solve,verify,certify,inverse}" in text
    for name, line in HELP.items():
        assert f"{name} {line}" in text


@pytest.mark.parametrize("command", sorted(HELP))
def test_each_command_help_shows_its_options(command, capsys):
    text = _help([command, "--help"], capsys)
    for option in ("--config", "--out", "--set", "--grid", "--quiet"):
        assert option in text
