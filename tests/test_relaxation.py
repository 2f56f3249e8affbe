"""Relaxation profiles against scalar closed forms and the property report."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstokes import (
    MemoryKernel,
    TimeGrid,
    certify_completely_positive,
    relaxation_batch,
    verify_relaxation,
)
from rstokes.volterra import scheme_decision, second_kind_solve

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
    rows = verify_relaxation(table)
    assert all(r.status == "pass" for r in rows), [
        (r.name, r.param, r.worst_margin) for r in rows if r.status != "pass"
    ]
    # four properties per column, one lambda-monotonicity row per adjacent pair
    names = [r.name for r in rows]
    assert names.count("positivity") == 32
    assert names.count("monotone_lambda") == 31
    assert min(r.worst_margin for r in rows if r.name == "positivity") >= -1e-8


def test_property_report_locates_worst_times():
    grid = TimeGrid.uniform(1.0, 128)
    table = relaxation_batch(MemoryKernel.fractional(1.0, 0.5), [1.0, 4.0], grid)
    # t = 0, where omega = 1 meets the bounds exactly, is not a candidate
    for row in verify_relaxation(table):
        assert 0.0 < row.t_worst <= 1.0


def test_kinked_table_fails_where_the_certificate_fails():
    # flat left extension then steep decay: not completely positive, and the
    # profile verifier must flag the same structural break rather than hide it
    t = np.linspace(1.0, 40.0, 40) / 40.0
    vals = np.where(t < 0.3, 3.0, 3.0 * np.exp(-12.0 * (t - 0.3)))
    kernel = MemoryKernel.tabulated(t, vals)
    grid = TimeGrid.uniform(1.0, 256)

    assert any(r.status == "fail" for r in certify_completely_positive(kernel, grid))

    table = relaxation_batch(kernel, [25.0, 100.0], grid)
    failing = {r.name for r in verify_relaxation(table) if r.status == "fail"}
    assert "monotone_time" in failing


@st.composite
def closed_kernels(draw):
    """A kernel of one of the four kinds with a closed form, over wide scales."""
    kind = draw(st.sampled_from(["zero", "constant", "fractional", "exponential"]))
    m0 = draw(st.floats(1e-3, 1e3))
    if kind == "zero":
        return MemoryKernel.zero()
    if kind == "constant":
        return MemoryKernel.constant(m0)
    if kind == "fractional":
        return MemoryKernel.fractional(m0, draw(st.floats(0.05, 0.95)))
    return MemoryKernel.exponential(m0, draw(st.floats(1e-2, 1e3)))


@given(
    kernel=closed_kernels(),
    horizon=st.floats(1e-2, 1e2),
    n_steps=st.sampled_from([16, 64, 256, 1024]),
    lams=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=7).map(np.sort),
)
def test_rectangle_tables_pass_every_property_row(kernel, horizon, n_steps, lams):
    # the rectangle rule keeps every structural estimate at any kernel scale,
    # horizon and stiffness
    grid = TimeGrid.uniform(horizon, n_steps)
    table = relaxation_batch(kernel, lams, grid, "rectangle")
    failing = [r for r in verify_relaxation(table) if r.status != "pass"]
    assert not failing, failing


def test_a_trapezoid_table_below_the_stiffness_threshold_can_rebound():
    # lam * left0 = 0.885 at lam = 95.5, under STIFF_THRESHOLD, so the
    # automatic rule is the trapezoid; its omega falls to 0.045 at t = dt and
    # climbs back to 0.141, and the checker reports it.  The rectangle rule
    # on the same case passes every row.
    kernel = MemoryKernel.fractional(0.8536600062382801, 0.45974191249059987)
    grid = TimeGrid.uniform(1.5182384508125777, 1024)
    lams = [0.0255971246, 5.35761937, 95.5329363]
    assert scheme_decision(kernel.a_moments, grid, lams)["scheme"] == "trapezoid"

    rows = verify_relaxation(relaxation_batch(kernel, lams, grid, "trapezoid"))
    (rebound,) = [r for r in rows if r.status == "fail"]
    assert (rebound.name, rebound.param) == ("monotone_time", 95.5329363)
    assert rebound.worst_margin < -0.09

    rows = verify_relaxation(relaxation_batch(kernel, lams, grid, "rectangle"))
    assert all(r.status == "pass" for r in rows)
