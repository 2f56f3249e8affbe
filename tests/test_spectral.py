"""Dirichlet eigenbasis: eigenvalues, collocation projection, norms."""

from unittest import mock

import numpy as np
import pytest
from bits import same_bits
from hypothesis import given, strategies as st
from scipy.integrate import quad

from rstokes import (
    Interval,
    Nonlinearity,
    Rectangle,
    build_basis,
    hnorm,
    project,
    synthesize,
)
from rstokes import spectral


# -- dense oracle: the (nodes x modes) matrices the per-axis path replaced --


def dense_synthesize(basis, coeffs):
    return coeffs @ basis.eval_modes(basis.nodes).T


def dense_project(basis, samples):
    # every node has the same weight, applied once to the coefficients
    return (samples @ basis.eval_modes(basis.nodes)) * basis.node_weights[0]


def dense_power(basis, V, power, scale, signed):
    s = dense_synthesize(basis, V)
    mapped = np.abs(s) ** power
    if signed:
        mapped = np.sign(s) * mapped
    return dense_project(basis, scale * mapped)


def dense_advection_samples(basis, W, chi):
    grads = basis.eval_grad_modes(basis.nodes)
    return sum(c * (W @ g.T) for c, g in zip(chi, grads))


def term_sums(basis, samples):
    """Sum of the absolute terms of each projected coefficient.

    A floating-point sum errs relative to this, not to its own value, which
    may cancel to rounding (one mode: the advection integral of e_1' e_1 is 0).
    """
    return (np.abs(samples) * basis.node_weights) @ np.abs(basis.eval_modes(basis.nodes))


def test_interval_eigenvalues():
    basis = build_basis(Interval(2.0), 5)
    np.testing.assert_allclose(
        basis.eigenvalues, (np.arange(1, 6) * np.pi / 2.0) ** 2
    )
    assert basis.n_modes == 5


def test_interval_modes_are_orthonormal_in_quadrature():
    basis = build_basis(Interval(1.5), 4)
    E = basis.synthesis
    gram = (E * basis.node_weights[:, None]).T @ E
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_interval_mode_normalization_against_quad():
    basis = build_basis(Interval(1.0), 3)
    for n in range(3):
        val, _ = quad(lambda x: basis.eval_modes([x])[0, n] ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_project_synthesize_roundtrip():
    rng = np.random.default_rng(11)
    basis = build_basis(Interval(1.0), 8)
    coeffs = rng.standard_normal(8)
    samples = synthesize(basis, coeffs)
    np.testing.assert_allclose(project(basis, samples), coeffs, atol=1e-12)
    # leading axes survive
    series = rng.standard_normal((5, 8))
    np.testing.assert_allclose(
        project(basis, synthesize(basis, series)), series, atol=1e-12
    )


def test_synthesize_at_arbitrary_points():
    basis = build_basis(Interval(1.0), 2)
    pts = np.array([0.25, 0.5])
    vals = basis.eval_modes(pts) @ [1.0, 0.0]
    np.testing.assert_allclose(vals, np.sqrt(2.0) * np.sin(np.pi * pts))


def test_hnorm_weights_by_eigenvalue_powers():
    basis = build_basis(Interval(1.0), 3)
    c = np.array([1.0, 2.0, 0.0])
    lam = basis.eigenvalues
    assert hnorm(c, basis, 0.0) == pytest.approx(np.sqrt(5.0))
    assert hnorm(c, basis, 1.0) == pytest.approx(np.sqrt(lam[0] + 4.0 * lam[1]))
    assert hnorm(c, basis, -1.0) == pytest.approx(
        np.sqrt(1.0 / lam[0] + 4.0 / lam[1])
    )
    # row-wise over a series
    series = np.stack([c, 2.0 * c])
    np.testing.assert_allclose(hnorm(series, basis, 0.0), [np.sqrt(5), 2 * np.sqrt(5)])


@given(
    n_modes=st.sampled_from([1, 3, 7, 8, 9, 64, 130]),
    rows=st.integers(1, 300),
    rho=st.sampled_from([0.0, 1.0, -0.5, 1.7]),
    difference=st.booleans(),
    # the default budget, one row a block, and ragged blocks
    block=st.sampled_from([spectral._BLOCK, 1, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_block_norms_keep_the_bits_of_hnorm(
    n_modes, rows, rho, difference, block, seed
):
    basis = build_basis(Interval(1.0), n_modes)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n_modes)) * 10.0 ** rng.integers(-5, 5, n_modes)
    b = rng.standard_normal((rows, n_modes)) if difference else None
    with mock.patch.object(spectral, "_BLOCK", block):
        got = hnorm(a, basis, rho, b)
    # the unblocked one-pass formula over the whole table
    c = a - b if difference else a
    want = np.sqrt(np.sum(basis.eigenvalues**rho * c * c, axis=-1))
    assert got.tobytes() == want.tobytes()


def test_gradient_pairing_matches_quadrature():
    # Green's identity (grad u, grad kappa) = sum lambda_n u_n kappa_n, the
    # pairing the inverse elimination formula weights its states with
    basis = build_basis(Interval(1.0), 4)
    u = np.array([0.5, -0.2, 0.0, 0.1])
    kappa = np.array([1.0, 0.3, -0.4, 0.0])

    def du(x):
        return float(sum(c * g for c, g in zip(u, basis.eval_grad_modes([x])[0][0])))

    def dk(x):
        return float(
            sum(c * g for c, g in zip(kappa, basis.eval_grad_modes([x])[0][0]))
        )

    ref, _ = quad(lambda x: du(x) * dk(x), 0.0, 1.0, limit=100)
    assert u @ (basis.eigenvalues * kappa) == pytest.approx(ref, abs=1e-9)


def test_rectangle_modes_sorted_with_lexicographic_ties():
    basis = build_basis(Rectangle(1.0, 1.0), 6)
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) >= 0.0)
    # the square domain's (1,2)/(2,1) pair ties; first axis index breaks it
    pair = [tuple(ix) for ix in basis.indices[1:3]]
    assert pair == [(1, 2), (2, 1)]
    np.testing.assert_allclose(lam[0], 2.0 * np.pi**2)


def test_rectangle_projection_roundtrip():
    rng = np.random.default_rng(2)
    basis = build_basis(Rectangle(1.0, 2.0), 5)
    coeffs = rng.standard_normal(5)
    np.testing.assert_allclose(
        project(basis, synthesize(basis, coeffs)), coeffs, atol=1e-12
    )


def test_rectangle_node_weights_cover_the_area():
    # M = 2N+2 cells per axis, M-1 interior nodes of weight L/M each: the
    # weights sum to area * ((M-1)/M)^2 exactly (the boundary cells drop out)
    basis = build_basis(Rectangle(1.0, 2.0), 4)
    total = float(np.sum(basis.node_weights))
    assert total == pytest.approx(2.0 * (9.0 / 10.0) ** 2, rel=1e-12)


def test_a_basis_needs_a_mode():
    with pytest.raises(ValueError):
        build_basis(Interval(1.0), 0)


def assert_matches(got, want, terms):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * float(np.max(terms)))


@given(
    rectangle=st.booleans(),
    lx=st.floats(0.3, 3.0),
    ly=st.floats(0.3, 3.0),
    n_modes=st.integers(1, 80),
    rows=st.integers(1, 4),
    power=st.sampled_from([2.0, 3.0, 2.5]),
    scale=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_axis_path_matches_dense_oracle(
    rectangle, lx, ly, n_modes, rows, power, scale, seed
):
    # lx != ly gives bases whose largest index differs per axis; each check
    # is to 1e-13 of the largest output magnitude, or of the largest sum of
    # absolute terms where the output cancels
    domain = Rectangle(lx, ly) if rectangle else Interval(lx)
    basis = build_basis(domain, n_modes)
    rng = np.random.default_rng(seed)
    decay = np.arange(1, n_modes + 1) ** 2.0
    V = rng.standard_normal((rows, n_modes)) / decay
    W = rng.standard_normal((rows, n_modes)) / decay

    samples = synthesize(basis, V)
    E = basis.eval_modes(basis.nodes)
    assert_matches(samples, dense_synthesize(basis, V), np.abs(V) @ np.abs(E).T)
    assert_matches(
        project(basis, samples), dense_project(basis, samples), term_sums(basis, samples)
    )
    for signed in (True, False):
        spec = Nonlinearity.polynomial_power(power, scale=scale, signed=signed)
        want = dense_power(basis, V, power, scale, signed)
        assert_matches(
            spec.apply_series(V, W, basis),
            want,
            term_sums(basis, scale * np.abs(samples) ** power),
        )
    chi = tuple(rng.standard_normal(domain.ndim))
    adv = dense_advection_samples(basis, W, chi)
    assert_matches(
        Nonlinearity.advection_history(chi).apply_series(V, W, basis),
        dense_project(basis, adv),
        term_sums(basis, adv),
    )


def test_interval_path_is_the_dense_matrix_bit_for_bit():
    # one axis: the table is eval_modes at the nodes, so nothing is reordered
    rng = np.random.default_rng(4)
    basis = build_basis(Interval(1.3), 32)
    V = rng.standard_normal((65, 32))
    assert np.array_equal(synthesize(basis, V), dense_synthesize(basis, V))
    S = rng.standard_normal((65, basis.nodes.size))
    assert np.array_equal(project(basis, S), dense_project(basis, S))
    spec = Nonlinearity.polynomial_power(2.0, scale=0.5)
    assert np.array_equal(
        spec.apply_series(V, V, basis), dense_power(basis, V, 2.0, 0.5, True)
    )


def test_rectangle_tables_are_sized_per_axis():
    # 64 modes on the square reach index 9 per axis; the nodes stay 2N+1
    basis = build_basis(Rectangle(1.0, 1.0), 64)
    assert basis.nodes.shape == (129 * 129, 2)
    assert [t.shape for t in basis._tables] == [(129, 9), (129, 9)]
    assert "synthesis" not in vars(basis) and "gradients" not in vars(basis)
    wide = build_basis(Rectangle(3.0, 1.0), 20)
    assert wide._tables[0].shape[1] > wide._tables[1].shape[1]


def test_synthesize_and_project_keep_leading_axes():
    rng = np.random.default_rng(5)
    basis = build_basis(Rectangle(1.0, 2.0), 7)
    series = rng.standard_normal((2, 3, 7))
    samples = synthesize(basis, series)
    assert samples.shape == (2, 3, basis.nodes.shape[0])
    np.testing.assert_allclose(project(basis, samples), series, atol=1e-12)
    with pytest.raises(ValueError):
        synthesize(basis, np.ones(6))


@pytest.mark.parametrize("domain", [Interval(1.3), Rectangle(1.0, 2.0)])
def test_project_into_out_keeps_the_bits_of_a_fresh_result(domain):
    # the power term projects each row block straight into its rows of f
    rng = np.random.default_rng(6)
    basis = build_basis(domain, 12)
    samples = rng.standard_normal((5, basis.nodes.shape[0]))
    table = np.full((7, basis.n_modes), np.nan)
    assert project(basis, samples, out=table[1:6]).base is table
    assert same_bits(table[1:6], project(basis, samples))
    assert np.isnan(table[[0, 6]]).all()
    series = rng.standard_normal((2, 3, basis.nodes.shape[0]))
    out = np.empty((2, 3, basis.n_modes))
    project(basis, series, out=out)
    assert same_bits(out, project(basis, series))
    for bad in (table[1:5], np.empty((basis.n_modes, 5)).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            project(basis, samples, out=bad)
