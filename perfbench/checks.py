"""Output checks of one benchmark op; every problem found fails the op.

Checks: every process exits 0 with status ok and every certificate "pass";
a solve's last Picard residual is below its tol; the recovered source is
within 5% of the true one (the same-grid bound of the acceptance test); on
the default seed, every row of the key numbers matches the reference values
in reference.json to a relative 1e-8, with an absolute 1e-14 floor for
values near zero.  The caller also requires the CSVs of all ops of one seed
to be byte-identical.

verify_report.csv is compared by status only: its worst_margin column is
expected to change definition.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Dict, List, Tuple

import numpy as np

from workloads import WORKLOADS, true_source

STATUSES = ("pass", "fail", "skip", "not-applicable")
REFERENCE_REL = 1e-8
ABS_FLOOR = 1e-14


def read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def table(path: str) -> Dict[str, List[str]]:
    """Columns of a CSV by header name, so added columns do not shift them."""
    header, rows = read_csv(path)
    return {name: [r[j] for r in rows] for j, name in enumerate(header)}


def floats(values: List[str]) -> np.ndarray:
    return np.array(values, dtype=float)


def csv_digests(op_dir: str) -> Dict[str, str]:
    """SHA-256 of every CSV an op wrote, keyed by path under op_dir."""
    out = {}
    for root, _, files in os.walk(op_dir):
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    out[os.path.relpath(path, op_dir)] = hashlib.sha256(
                        handle.read()).hexdigest()
    return out


def _process_problems(command: str, out: str, code: int) -> List[str]:
    if code != 0:
        return [f"{command}: exit code {code}"]
    try:
        with open(os.path.join(out, "summary.json")) as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{command}: unreadable summary.json ({exc})"]
    problems = []
    if summary.get("status") != "ok":
        problems.append(f"{command}: status {summary.get('status')!r}")
    for key, value in sorted(summary.get("certificates", {}).items()):
        if value in STATUSES and value != "pass":
            problems.append(f"{command}: certificate {key} is {value!r}")
    return problems


def check_op(workload: str, op_dir: str, exit_codes: List[int], facts: Dict) -> List[str]:
    """Problems with the outputs of one op; empty when it is correct."""
    problems = []
    for (command, _), code in zip(WORKLOADS[workload], exit_codes):
        problems += _process_problems(command, os.path.join(op_dir, command), code)
    if problems:
        return problems
    try:
        problems += _content_problems(workload, op_dir, facts)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        problems.append(f"unreadable output: {exc}")
    return problems


def _content_problems(workload: str, op_dir: str, facts: Dict) -> List[str]:
    problems = []
    if workload.startswith("solve"):
        tol = facts["configs"]["solve.json"]["problem"]["tol"]
        last = floats(table(os.path.join(op_dir, "solve", "iterations.csv"))["residual"])[-1]
        if not last < tol:
            problems.append(f"last Picard residual {last:.3e} is not below tol {tol:g}")
    elif workload == "inverse":
        p_table = table(os.path.join(op_dir, "inverse", "p_recovered.csv"))
        t, p = floats(p_table["t"]), floats(p_table["p"])
        p_true = true_source(facts["phase"], t)
        err = float(np.max(np.abs(p - p_true)) / np.max(np.abs(p_true)))
        if not err <= 0.05:
            problems.append(f"recovered source error {err:.3e} exceeds 0.05")
    else:
        report = table(os.path.join(op_dir, "verify", "verify_report.csv"))
        certs = table(os.path.join(op_dir, "certify", "certificates.csv"))
        for name, status in zip(report["lemma_item"] + certs["certificate"],
                                report["pass/skip"] + certs["status"]):
            if status != "pass":
                problems.append(f"row {name} is {status!r}")
    return problems


def extract_reference(workload: str, op_dir: str) -> Dict:
    """The key numbers of one op that the reference pins."""
    if workload.startswith("solve"):
        states = table(os.path.join(op_dir, "solve", "states.csv"))
        return {
                        "norm_L2": floats(states["||u||_L2"]).tolist(),
            "norm_Hmu": floats(states["||u||_Hmu"]).tolist(),
        }
    if workload == "inverse":
        p = table(os.path.join(op_dir, "inverse", "p_recovered.csv"))["p"]
        return {"p_recovered": floats(p).tolist()}
    report = table(os.path.join(op_dir, "verify", "verify_report.csv"))
    certs = table(os.path.join(op_dir, "certify", "certificates.csv"))
    return {
        "certificates_worst": floats(certs["worst_value"]).tolist(),
        "verify_status": [list(r) for r in zip(report["lemma_item"], report["pass/skip"])],
    }


def compare_reference(actual: Dict, reference: Dict) -> List[str]:
    """Every pinned value within REFERENCE_REL of its own magnitude.

    ABS_FLOOR only matters where a value is near zero (below about 1e-6,
    as the recovered source is where p(t) touches 0).
    """
    problems = []
    for key, want in reference.items():
        got = actual.get(key)
        if isinstance(want, list) and want and isinstance(want[0], float):
            want_a, got_a = np.asarray(want), np.asarray(got, dtype=float)
            if want_a.shape != got_a.shape:
                problems.append(f"reference {key}: {got_a.size} values, want {want_a.size}")
                continue
            allowed = REFERENCE_REL * np.abs(want_a) + ABS_FLOOR
            bad = np.flatnonzero(~(np.abs(got_a - want_a) <= allowed))
            if bad.size:
                i = int(bad[0])
                problems.append(
                    f"reference {key}: {bad.size} values deviate; row {i} is "
                    f"{got_a[i]!r}, want {want_a[i]!r}")
        elif got != want:
            problems.append(f"reference {key}: {got!r} != {want!r}")
    return problems
