"""Symmetric tridiagonal eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squarequad import ConvergenceError, JacobiWeight, eig_tridiag, recurrence_coeffs

from oracles import ql_numpy_scalars, tridiag_eigvals_bisect

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def test_scalar_case():
    out = eig_tridiag(np.array([3.5]), np.array([]))
    assert out.values[0] == 3.5
    assert out.firstcomp[0] == pytest.approx(1.0)


def test_legendre_2x2_closed_form():
    out = eig_tridiag(np.array([0.0, 0.0]), np.array([np.sqrt(1.0 / 3.0)]))
    assert out.values == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], rel=1e-15)
    assert out.firstcomp**2 == pytest.approx([0.5, 0.5], rel=1e-14)


@given(
    d=hnp.arrays(np.float64, st.integers(2, 12), elements=finite),
)
@settings(max_examples=60)
def test_against_dense_and_bisection_oracles(d):
    n = len(d)
    e = np.linspace(0.3, 1.1, n - 1)
    out = eig_tridiag(d, e)
    scale = max(1.0, np.max(np.abs(d)) + 2 * np.max(np.abs(e)))
    dense_vals = np.linalg.eigvalsh(_dense(d, e))
    assert np.max(np.abs(out.values - dense_vals)) < 1e-12 * scale
    bis = tridiag_eigvals_bisect(d, e)
    assert np.max(np.abs(out.values - bis)) < 1e-10 * scale
    # first components against the dense eigenvector matrix
    _, vecs = np.linalg.eigh(_dense(d, e))
    assert np.max(np.abs(out.firstcomp**2 - vecs[0, :] ** 2)) < 1e-10


def test_trace_invariance(rng):
    for _ in range(20):
        d = rng.standard_normal(8)
        e = rng.standard_normal(7)
        out = eig_tridiag(d, e)
        assert np.sum(out.values) == pytest.approx(np.sum(d), abs=1e-12 * max(1, abs(d).sum()))


def test_first_components_normalized(rng):
    d = rng.standard_normal(10)
    e = rng.standard_normal(9)
    out = eig_tridiag(d, e)
    assert np.sum(out.firstcomp**2) == pytest.approx(1.0, abs=1e-12)


def test_values_sorted_and_simple(rng):
    d = rng.standard_normal(15)
    e = 0.5 + rng.random(14)
    out = eig_tridiag(d, e)
    assert np.all(np.diff(out.values) > 0)


def test_cauchy_interlacing(rng):
    d = rng.standard_normal(9)
    e = 0.2 + rng.random(8)
    full = eig_tridiag(d, e).values
    lead = eig_tridiag(d[:-1], e[:-1]).values
    assert np.all(full[:-1] <= lead + 1e-13)
    assert np.all(lead <= full[1:] + 1e-13)


def test_mismatched_lengths_rejected():
    with pytest.raises((ValueError, ConvergenceError)):
        eig_tridiag(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def _assert_bits_match_numpy_scalar_sweep(d, e):
    try:
        values, firstcomp = ql_numpy_scalars(d, e)
    except RuntimeError:
        with pytest.raises(ConvergenceError):
            eig_tridiag(d, e)
        return
    out = eig_tridiag(d, e)
    assert np.array_equal(out.values, values)
    assert np.array_equal(out.firstcomp, firstcomp)


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (-0.5, 0.0), (1.0, 1.25)])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 189])
def test_bit_identical_to_numpy_scalar_sweep_on_jacobi_matrices(ab, n):
    c = recurrence_coeffs(JacobiWeight(*ab), n)
    off = np.sqrt(c.b[1:n])
    # the Gauss matrix and the same matrix bordered with sqrt(2 b_n)
    _assert_bits_match_numpy_scalar_sweep(c.a[:n], off)
    _assert_bits_match_numpy_scalar_sweep(c.a[: n + 1], np.append(off, np.sqrt(2.0 * c.b[n])))


@given(
    data=st.data(),
    n=st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_bit_identical_to_numpy_scalar_sweep_on_random_matrices(data, n):
    d = data.draw(hnp.arrays(np.float64, n, elements=finite))
    e = data.draw(hnp.arrays(np.float64, n - 1, elements=st.one_of(st.just(0.0), finite)))
    _assert_bits_match_numpy_scalar_sweep(d, e)


@pytest.mark.parametrize(
    "d, e",
    [([np.nan], []), ([1.0, np.inf], [0.5]), ([1.0, 2.0], [np.nan]), ([1.0, 2.0, 3.0], [np.inf, 1.0])],
)
def test_nonfinite_input_rejected(d, e):
    with pytest.raises(ValueError, match="finite"):
        eig_tridiag(d, e)


def test_entries_near_overflow_rejected():
    # the deflation sum |d_0| + |d_1| overflows here, which used to deflate
    # the coupled pair and return +-1e308 instead of +-1.414e308
    with pytest.raises(ValueError, match="Gershgorin"):
        eig_tridiag([1e308, -1e308, 0.5], [1e308, 1.0])


def test_large_entries_below_the_bound_solved():
    d, e = [1e300, -1e300, 0.5], [1e300, 1.0]
    out = eig_tridiag(d, e)
    want = np.linalg.eigvalsh(_dense(np.array(d), np.array(e)))
    assert out.values == pytest.approx(want, rel=1e-14)
    assert np.sum(out.firstcomp**2) == pytest.approx(1.0, rel=1e-14)


def test_power_of_two_scaling_exact_up_to_the_bound(rng):
    # every step of the sweep is homogeneous, so a power-of-two scaling that
    # overflows nowhere scales the values exactly and keeps the first row
    limit = 2.0**-8 * np.finfo(float).max
    for n in (2, 5, 17, 40):
        d, e = rng.uniform(-5.0, 5.0, n), rng.uniform(-5.0, 5.0, n - 1)
        bound = np.max(np.abs(d) + np.append(0.0, np.abs(e)) + np.append(np.abs(e), 0.0))
        scale = 2.0 ** np.floor(np.log2(limit / bound))
        while scale * bound >= limit:
            scale /= 2.0
        small, big = eig_tridiag(d, e), eig_tridiag(scale * d, scale * e)
        assert np.array_equal(big.values, scale * small.values)
        assert np.array_equal(big.firstcomp, small.firstcomp)
        with pytest.raises(ValueError, match="Gershgorin"):
            eig_tridiag(4.0 * scale * d, 4.0 * scale * e)
