"""Symmetric tridiagonal eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squarequad import ConvergenceError, JacobiWeight, eig_tridiag, recurrence_coeffs, tridiag

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
    """Compare with the oracle bit for bit; True when both raise."""
    try:
        values, firstcomp = ql_numpy_scalars(d, e)
    except RuntimeError as err:
        # the oracle's message starts "eigenvalue <l> not converged"
        with pytest.raises(ConvergenceError) as info:
            eig_tridiag(d, e)
        assert info.value.index == int(str(err).split()[1])
        return True
    out = eig_tridiag(d, e)
    # bytes, so that a zero of the other sign fails too
    assert out.values.tobytes() == values.tobytes()
    assert out.firstcomp.tobytes() == firstcomp.tobytes()
    return False


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (-0.5, 0.0), (1.0, 1.25)])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 189, 256])
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


def _seeded_matrix(kind, rng):
    n = int(rng.integers(2, 41))
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "zero-interior":
        e[rng.random(n - 1) < 0.3] = 0.0
    elif kind == "tiny-interior":
        # entries near the deflation threshold, which sweeps push below it
        mask = rng.random(n - 1) < 0.3
        e[mask] *= 10.0 ** -rng.uniform(12.0, 18.0, mask.sum())
    elif kind == "integer":
        # small integers, where rounding often cancels exactly
        d = rng.integers(-3, 4, n).astype(float)
        e = rng.integers(-2, 3, n - 1).astype(float)
    elif kind == "constant":
        d = np.full(n, float(rng.integers(-2, 3)))
        e = np.full(n - 1, float(rng.integers(0, 2)))
    elif kind == "scaled-2^-1000":
        d, e = 2.0**-1000 * d, 2.0**-1000 * e
    return d, e


@pytest.mark.parametrize(
    "kind", ["normal", "zero-interior", "tiny-interior", "integer", "constant", "scaled-2^-1000"]
)
def test_bit_identical_to_numpy_scalar_sweep_on_seeded_matrices(kind):
    # A seeded generator rather than Hypothesis, whose draws depend on the
    # literals of the loaded modules.  Between them the families split
    # matrices inside a sweep and deflate two eigenvalues in one sweep.
    rng = np.random.default_rng(27)
    for _ in range(150):
        _assert_bits_match_numpy_scalar_sweep(*_seeded_matrix(kind, rng))


def test_subnormal_scale_raises_where_the_numpy_scalar_sweep_does():
    # A rotation with f = g = 0 ends its sweep early.  e[i] is not 0 inside
    # a sweep, so f = s * e[i] is 0 only through underflow, which products
    # at the 2**-1040 scale do.  Rounding there also stalls many sweeps;
    # the library must raise exactly where the oracle does.
    rng = np.random.default_rng(1040)
    raised = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        raised += _assert_bits_match_numpy_scalar_sweep(2.0**-1040 * d, 2.0**-1040 * e)
    assert 0 < raised < 100


def test_deflation_scan_runs_once_without_interior_splits(monkeypatch):
    # the rotation loop finds every later m itself; a rescan before each
    # sweep would call the scan once per sweep
    calls = []
    scan = tridiag._first_negligible

    def spy(d, e, l, eps):
        calls.append(l)
        return scan(d, e, l, eps)

    monkeypatch.setattr(tridiag, "_first_negligible", spy)
    c = recurrence_coeffs(JacobiWeight(0.0, 0.0), 64)
    out = eig_tridiag(c.a[:64], np.sqrt(c.b[1:64]))
    assert np.all(np.diff(out.values) > 0.0)
    assert calls == [0]


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
