"""End-to-end runs of the command line entry point against tmp dirs."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rstokes
from rstokes import (
    Interval,
    InverseProblem,
    MemoryKernel,
    TimeGrid,
    build_basis,
    forward_simulate,
)
from rstokes.cli import main
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


def test_diverging_solve_exits_2_with_artifacts(tmp_path):
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
    with np.errstate(over="ignore"):
        code = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "non-convergence"
    assert summary["artifacts"] == ["iterations.csv"]
    _, rows = read_table(out / "iterations.csv")
    residuals = [float(r[1]) for r in rows]
    assert len(residuals) >= 2 and residuals[1] > residuals[0]


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
