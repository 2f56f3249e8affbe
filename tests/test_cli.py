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
from rstokes.config import build_domain_basis, build_grid, build_kernel
from rstokes.csvio import write_csv, write_field_csv
from rstokes.kernels import DEFAULT_THETAS


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


def test_inverse_round_trip_through_files(tmp_path):
    basis = build_basis(Interval(1.0), 2)
    grid = TimeGrid.uniform(1.0, 256)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    g = np.array([1.0, 0.0])
    p_true = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid.nodes)
    problem = InverseProblem(
        basis=basis, grid=grid, kernel=kernel, g=g, kappa=g,
        xi=np.zeros(2), psi=np.zeros(grid.nodes.size),
    )
    _, psi = forward_simulate(problem, p_true)

    write_field_csv(str(tmp_path / "g.csv"), basis.eigenvalues, g)
    write_field_csv(str(tmp_path / "kappa.csv"), basis.eigenvalues, g)
    write_csv(str(tmp_path / "psi.csv"), ["t", "psi"], zip(grid.nodes, psi))

    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"shape": "interval", "L": 1.0, "N": 2},
            "grid": {"T": 1.0, "N_t": 256},
            "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
            "inverse": {
                "psi_path": str(tmp_path / "psi.csv"),
                "g_path": str(tmp_path / "g.csv"),
                "kappa_path": str(tmp_path / "kappa.csv"),
            },
        },
    )
    out = tmp_path / "run"
    assert main(["inverse", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    header, _ = read_table(out / "p_recovered.csv")
    assert header == ["t", "p"]
    p_rec = numeric_column(out / "p_recovered.csv", 1)
    assert np.max(np.abs(p_rec - p_true)) < 5e-3

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

    # a graded solve is refused before any work: holder.csv needs a uniform grid
    graded = dict(SOLVE_CFG, grid={"T": 1.0, "N_t": 64, "grading": 2.0})
    cfg = write_cfg(tmp_path, graded, name="graded.json")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid.grading" in err and "Holder" in err
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


POWER = {"kind": "polynomial_power", "power": 2.0}
ADVECTION = {"kind": "advection_history", "chi": [0.5]}
EXPONENTIAL = {"kind": "exponential", "amplitude": 1.0, "decay": 1.0}


@pytest.mark.parametrize(
    "nonlinearity, history_kernel, history",
    [
        (POWER, EXPONENTIAL, False),
        (ADVECTION, EXPONENTIAL, True),
        ({"kind": "sum", "parts": [POWER, ADVECTION]}, EXPONENTIAL, True),
        ({"kind": "sum", "parts": [POWER, ADVECTION]}, {"kind": "zero"}, True),
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


def _reaction(kind, ndim, power, scale, chi):
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
    kind=st.sampled_from(["power", "advection", "sum"]),
    power=st.floats(1.1, 4.0),
    scale=st.floats(-50.0, 50.0),
    chi=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
    amplitude=st.floats(-1e3, 1e3),
    max_iter=st.integers(1, 40),
)
def test_solve_exits_0_or_2_with_a_summary(
    rectangle, n_modes, n_steps, kind, power, scale, chi, amplitude, max_iter
):
    # from the small-data regime up to diverging amplitudes: a valid config
    # ends in a converged run or a non-convergence exit, never a traceback
    domain = (
        {"shape": "rectangle", "Lx": 1.0, "Ly": 1.5, "N": n_modes}
        if rectangle
        else {"shape": "interval", "L": 1.0, "N": n_modes}
    )
    payload = {
        "domain": domain,
        "grid": {"T": 1.0, "N_t": n_steps},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "nonlinearity": _reaction(kind, 2 if rectangle else 1, power, scale, chi),
        "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
        "initial": {"preset": "first_mode", "amplitude": amplitude},
        "problem": {"tol": 1e-10, "max_iter": max_iter},
    }
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        code, out, summary = _run("solve", payload, tmp)
        residuals = numeric_column(os.path.join(out, "iterations.csv"), 1)
    assert code in (0, 2)
    assert summary["status"] == ("ok" if code == 0 else "non-convergence")
    # the Picard record, on both exits, matches iterations.csv; a diverged
    # sweep's infinite residual is null there (strict JSON has no inf)
    picard = summary["picard"]
    assert picard["history_convolution"] == (kind != "power")
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
    grading=st.sampled_from([1.0, 2.0]),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**31),
    mu=st.floats(0.0, 2.0),
    delta=st.floats(0.05, 1.0, exclude_max=True),
)
def test_verify_exits_0_with_a_matching_summary(
    kind, m0, shape, rectangle, n_modes, n_steps, grading, trials, seed, mu, delta
):
    domain = (
        {"shape": "rectangle", "Lx": 1.0, "Ly": 1.5, "N": n_modes}
        if rectangle
        else {"shape": "interval", "L": 1.0, "N": n_modes}
    )
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "domain": domain,
            "grid": {"T": 1.0, "N_t": n_steps, "grading": grading},
            "kernel": _kernel_section(kind, m0, shape, tmp),
            "verify": {"trials": trials, "seed": seed, "mu": mu, "delta": delta},
        }
        with np.errstate(all="ignore"):
            code, out, summary = _run("verify", payload, tmp)
        _, rows = read_table(os.path.join(out, "verify_report.csv"))
    assert code == 0
    assert summary["subcommand"] == "verify" and summary["status"] == "ok"
    assert summary["artifacts"] == ["verify_report.csv"]
    assert summary["certificates"] == {r[0]: r[3] for r in rows}
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
    grading=st.sampled_from([1.0, 2.0]),
    thetas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
)
def test_certify_exits_0_with_a_matching_summary(
    kind, m0, shape, n_steps, grading, thetas
):
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "grid": {"T": 1.0, "N_t": n_steps, "grading": grading},
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
    grading=st.sampled_from([1.0, 2.0]),
)
def test_relax_exits_0_with_a_matching_summary(
    kind, m0, shape, source, lambdas, n_modes, n_steps, grading
):
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "grid": {"T": 1.0, "N_t": n_steps, "grading": grading},
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
)
def test_inverse_exits_0_or_2_with_a_matching_summary(
    kind, m0, shape, n_modes, n_steps, g, kappa, xi, phase, analytic_slope, max_iter
):
    # a measurement made by forward_simulate on the same grid; exit 1 is
    # allowed only for the two documented problem-data rejections
    g, kappa, xi = (np.array(v[:n_modes]) for v in (g, kappa, xi))
    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "domain": {"shape": "interval", "L": 1.0, "N": n_modes},
            "grid": {"T": 1.0, "N_t": n_steps},
            "kernel": _kernel_section(kind, m0, shape, tmp),
            "initial": {"coefficients": xi.tolist()},
            "inverse": {"max_iter": max_iter},
        }
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
        _, iterations = read_table(os.path.join(out, "iterations.csv"))
        assert 1 <= len(iterations) <= max_iter
        if code == 2:
            assert summary["status"] == "non-convergence"
            assert summary["artifacts"] == ["iterations.csv"]
            assert certs["reconstruction_converged"] == "fail"
            return
        assert code == 0
        assert summary["status"] == "ok"
        assert summary["artifacts"] == ["p_recovered.csv", "residual.csv",
                                        "iterations.csv"]
        assert certs["reconstruction_converged"] == "pass"
        assert certs["pairing"] == float(g @ kappa)
        residual = numeric_column(os.path.join(out, "residual.csv"), 1)
        assert certs["max_measurement_residual"] == float(np.max(np.abs(residual)))


def test_every_exported_name_resolves():
    star = {}
    exec("from rstokes import *", star)
    assert set(rstokes.__all__) <= set(star)
    for info in pkgutil.iter_modules(rstokes.__path__):
        module = importlib.import_module(f"rstokes.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"rstokes.{info.name}.{name}"


def test_cli_import_skips_heavy_scipy_subpackages():
    src = os.path.dirname(os.path.dirname(rstokes.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, rstokes.cli; print(' '.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    heavy = {"scipy.signal", "scipy.integrate", "scipy.special", "scipy.fft", "scipy.stats"}
    assert not heavy & set(loaded)
    # scipy is a test dependency only: the package itself never imports it
    assert "scipy" not in loaded


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
