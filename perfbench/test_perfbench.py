"""Smoke tests of the benchmark's own logic at tiny sizes.

Run from the checkout root:  python3 -m pytest -q perfbench
(The repository's test suite collects tests/ only.)
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, extra=None, cost=0.01):
    return {"name": name, "start": start, "end": end, "parent": parent, "extra": extra,
            "cost": cost}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("nonlinear.picard", 1.0, 7.0, 0, {"sweeps": 3}),
        span("nonlinear.apply", 2.0, 5.0, 1),
        span("spectral.project", 3.0, 4.0, 2),
        span("csvio.write", 8.0, 9.5, 0, {"rows": 5, "bytes": 80}),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 3.0, 2.0, 1.0, 1.5])
    m = tracer.layer_metrics(spans)
    assert m["cli.glue_s"] == pytest.approx(2.5)
    assert m["nonlinear.picard_s"] == pytest.approx(6.0)
    assert m["nonlinear.apply_s"] == pytest.approx(3.0)
    assert m["spectral.project_calls"] == 1
    assert m["csvio.rows_written"] == 5 and m["csvio.bytes_written"] == 80
    assert m["nonlinear.sweeps"] == 3
    assert m["volterra.second_kind_s"] == 0
    assert m["trace.wrapper_s"] == pytest.approx(0.05)


def test_recursive_spans_count_once_and_processes_combine():
    # a sum nonlinearity calls apply_series on its parts
    spans = [
        span("nonlinear.apply", 0.0, 4.0, -1),
        span("nonlinear.apply", 0.5, 1.5, 0),
        span("nonlinear.apply", 2.0, 3.0, 0),
        span("spectral.build_basis", 5.0, 6.0, -1, {"nodes": 65, "matrix_bytes": 2**20}),
        span("nonlinear.picard", 6.0, 8.0, -1, {"sweeps": 4}),
    ]
    inclusive, calls, own = tracer.span_totals(spans)
    assert inclusive["nonlinear.apply"] == pytest.approx(4.0)
    assert calls["nonlinear.apply"] == 1
    assert own["nonlinear.apply"] == pytest.approx(4.0)
    one = tracer.layer_metrics(spans)
    both = tracer.combine([one, one])
    assert both["nonlinear.apply_s"] == pytest.approx(8.0)
    assert both["spectral.nodes"] == 65  # max, not sum
    assert both["spectral.matrix_mb"] == pytest.approx(1.0)
    assert both["nonlinear.sweep_s"] == pytest.approx(4.0 / 8)


def test_wrappers_record_every_binding_and_restore_them():
    from rstokes import kernels, relaxation, volterra
    from rstokes import MemoryKernel, TimeGrid, relaxation_batch

    original = volterra.second_kind_solve
    grid = TimeGrid.uniform(1.0, 16)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    plain = relaxation_batch(kernel, [1.0, 4.0], grid).omega

    recorder = tracer.Recorder()
    restore = tracer.install(recorder)
    try:
        assert relaxation.second_kind_solve is not original
        assert kernels.second_kind_solve is relaxation.second_kind_solve
        traced = relaxation.relaxation_batch(kernel, [1.0, 4.0], grid).omega
    finally:
        restore()
    assert np.array_equal(plain, traced)
    for module in (volterra, relaxation, kernels):
        assert module.second_kind_solve is original
    assert "moments" in MemoryKernel.__dict__
    assert not hasattr(MemoryKernel.__dict__["moments"], "__wrapped__")

    names = [s[0] for s in recorder.spans]
    assert names[:2] == ["relaxation.batch", "volterra.second_kind"]
    assert "kernels.moments" in names
    solve = recorder.spans[1]
    assert solve[3] == 0  # parent is the batch span
    assert solve[4] == {"madds": 2 * 16 * 16}  # trapezoid: M * N^2
    assert all(s[5] > 0 for s in recorder.spans)


def test_import_breakdown_parses_importtime_lines():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:       300 |        700 |         scipy.signal",
        "import time:        40 |         40 |           scipy.integrate._quadpack",
        "import time:        60 |         60 |           scipy.integrate._ode",
        "import time:       500 |       1500 |   rstokes",
        "import time:        50 |       2000 | rstokes.cli",
    ])
    got = tracer.import_breakdown(text)
    assert got["import.rstokes_s"] == pytest.approx(2000e-6)
    assert got["import.scipy_signal_s"] == pytest.approx(700e-6)
    assert got["import.scipy_integrate_s"] == pytest.approx(100e-6)


def tiny_solve(tmp_path):
    from rstokes.cli import main

    cfg = {
        "domain": {"shape": "interval", "L": 1.0, "N": 4},
        "grid": {"T": 1.0, "N_t": 64},
        "kernel": {"kind": "exponential", "m0": 1.0, "decay": 2.0},
        "nonlinearity": {"kind": "polynomial_power", "power": 2.0, "scale": 0.5},
        "history_kernel": {"kind": "exponential", "amplitude": 1.0, "decay": 1.0},
        "initial": {"coefficients": [0.05, 0.01]},
        "problem": {"tol": 1e-10},
    }
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    op_dir = tmp_path / "op"
    code = main(["solve", "--config", str(path), "--out", str(op_dir / "solve"), "--quiet"])
    return str(op_dir), code, {"configs": {"solve.json": cfg}}


def test_checks_pass_a_good_op_and_flag_corrupted_outputs(tmp_path):
    op_dir, code, facts = tiny_solve(tmp_path)
    assert checks.check_op("solve-interval", op_dir, [code], facts) == []
    assert checks.check_op("solve-interval", op_dir, [2], facts) == ["solve: exit code 2"]

    reference = checks.extract_reference("solve-interval", op_dir)
    assert checks.compare_reference(reference, reference) == []
    digests = checks.csv_digests(op_dir)

    states = os.path.join(op_dir, "solve", "states.csv")
    with open(states) as handle:
        lines = handle.readlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    lines[1] = ",".join(fields)
    with open(states, "w") as handle:
        handle.writelines(lines)
    assert checks.csv_digests(op_dir) != digests
    problems = checks.compare_reference(
        checks.extract_reference("solve-interval", op_dir), reference)
    assert len(problems) == 1 and "norm_L2" in problems[0]

    iterations = os.path.join(op_dir, "solve", "iterations.csv")
    with open(iterations, "a") as handle:
        handle.write("99,0.5\n")
    assert "not below tol" in checks.check_op("solve-interval", op_dir, [0], facts)[0]

    summary_path = os.path.join(op_dir, "solve", "summary.json")
    with open(summary_path) as handle:
        summary = json.load(handle)
    summary["certificates"]["picard_converged"] = "fail"
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    assert checks.check_op("solve-interval", op_dir, [0], facts) == [
        "solve: certificate picard_converged is 'fail'"]


def test_reference_tolerance_is_per_value_with_a_floor_near_zero():
    want = {"p": [2.0, 1e-3, 1e-9]}
    assert checks.compare_reference({"p": [2.0 + 1e-8, 1e-3, 1e-9 + 5e-15]}, want) == []
    problems = checks.compare_reference({"p": [2.0, 1e-3 * (1 + 1e-7), 1e-9]}, want)
    assert len(problems) == 1 and "row 1" in problems[0]
    assert checks.compare_reference({"p": [2.0, 1e-3, 2e-9]}, want)


def test_generated_inputs_depend_on_the_seed_only_through_data(tmp_path):
    a = workloads.generate("solve-rectangle", 7, str(tmp_path / "a"))["configs"]
    b = workloads.generate("solve-rectangle", 7, str(tmp_path / "b"))["configs"]
    c = workloads.generate("solve-rectangle", 8, str(tmp_path / "c"))["configs"]
    assert a == b
    xa = np.array(a["solve.json"]["initial"]["coefficients"])
    xc = np.array(c["solve.json"]["initial"]["coefficients"])
    assert not np.array_equal(xa, xc)
    assert np.linalg.norm(xa) == pytest.approx(0.01) == np.linalg.norm(xc)
    del a["solve.json"]["initial"], c["solve.json"]["initial"]
    assert a == c
    v = workloads.generate("verify", 5, str(tmp_path / "v"))["configs"]
    assert v["verify.json"]["verify"]["seed"] == 5


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
