"""Relaxation profiles against scalar closed forms and the property report."""

import numpy as np
import pytest

from rstokes import (
    MemoryKernel,
    TimeGrid,
    certify_completely_positive,
    relaxation_batch,
    verify_relaxation,
)
from rstokes.volterra import second_kind_solve

LAMBDAS = np.array([1.0, np.pi**2, 20.0])


def test_zero_kernel_is_plain_exponential():
    grid = TimeGrid.uniform(1.0, 2048)
    for lam in LAMBDAS:
        w = relaxation_batch(MemoryKernel.zero(), [lam], grid).omega[:, 0]
        err = np.max(np.abs(w - np.exp(-lam * grid.nodes)))
        assert err < 5e-5, f"lambda={lam}: {err}"


def test_constant_kernel_rescales_time():
    # a = 1 + m0 turns the profile into exp(-lam (1+m0) t)
    grid = TimeGrid.uniform(1.0, 2048)
    kernel = MemoryKernel.constant(1.0)
    for lam in LAMBDAS:
        w = relaxation_batch(kernel, [lam], grid).omega[:, 0]
        err = np.max(np.abs(w - np.exp(-2.0 * lam * grid.nodes)))
        assert err < 2e-4, f"lambda={lam}: {err}"


def test_batch_columns_match_single_solves_and_record_scheme():
    grid = TimeGrid.uniform(1.0, 256)
    kernel = MemoryKernel.exponential(1.0, 2.0)
    table = relaxation_batch(kernel, LAMBDAS, grid)
    assert table.scheme in ("trapezoid", "rectangle")
    assert table.omega.shape == (257, 3)
    np.testing.assert_allclose(table.omega[0], 1.0)
    for j, lam in enumerate(LAMBDAS):
        # single solves run under the batch's joint scheme for comparability
        single, _ = second_kind_solve(kernel.a_moments, grid, lam, 1.0, table.scheme)
        np.testing.assert_allclose(table.omega[:, j], single, atol=1e-14)


def test_batch_validates_lambdas():
    grid = TimeGrid.uniform(1.0, 16)
    kernel = MemoryKernel.zero()
    with pytest.raises(ValueError):
        relaxation_batch(kernel, [2.0, 1.0], grid)  # not ascending
    with pytest.raises(ValueError):
        relaxation_batch(kernel, [], grid)
    with pytest.raises(ValueError):
        relaxation_batch(kernel, [-1.0], grid)


@pytest.mark.parametrize(
    "kernel",
    [
        MemoryKernel.zero(),
        MemoryKernel.constant(1.0),
        MemoryKernel.fractional(1.0, 0.5),
        MemoryKernel.exponential(1.0, 2.0),
    ],
    ids=lambda k: k.kind,
)
def test_property_report_passes_for_analytic_kernels(kernel):
    grid = TimeGrid.uniform(1.0, 512)
    lams = (np.arange(1, 33) * np.pi) ** 2
    table = relaxation_batch(kernel, lams, grid)
    report = verify_relaxation(table)
    assert report.passed, [
        (r.name, r.lam, r.worst_margin) for r in report.rows if not r.passed
    ]
    # five properties per column, one lambda-monotonicity row per adjacent pair
    names = [r.name for r in report.rows]
    assert names.count("positivity") == 32
    assert names.count("monotone_lambda") == 31
    assert report.worst("positivity") >= -1e-8
    with pytest.raises(KeyError):
        report.worst("no_such_row")


def test_property_report_locates_worst_times():
    grid = TimeGrid.uniform(1.0, 128)
    table = relaxation_batch(MemoryKernel.fractional(1.0, 0.5), [1.0, 4.0], grid)
    report = verify_relaxation(table)
    # t = 0, where omega = 1 meets the bounds exactly, is not a candidate
    for row in report.rows:
        assert 0.0 < row.t_worst <= 1.0


def test_kinked_table_fails_where_the_certificate_fails():
    # flat left extension then steep decay: not completely positive, and the
    # profile verifier must flag the same structural break rather than hide it
    t = np.linspace(1.0, 40.0, 40) / 40.0
    vals = np.where(t < 0.3, 3.0, 3.0 * np.exp(-12.0 * (t - 0.3)))
    kernel = MemoryKernel.tabulated(t, vals)
    grid = TimeGrid.uniform(1.0, 256)

    cert = certify_completely_positive(kernel, grid)
    assert not cert.passed

    table = relaxation_batch(kernel, [25.0, 100.0], grid)
    report = verify_relaxation(table)
    failing = {r.name for r in report.rows if not r.passed}
    assert "monotone_time" in failing
