"""Recurrence coefficients and orthonormal evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarequad import JacobiWeight, eval_orthonormal, gauss_rule, recurrence_coeffs

from oracles import integral_1d, jacobi_b0

wexp = st.floats(min_value=-0.9, max_value=2.0, allow_nan=False)


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        JacobiWeight(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiWeight(0.0, -1.5)


def test_nonfinite_exponents_rejected():
    with pytest.raises(ValueError, match="alpha must be finite, got inf"):
        JacobiWeight(math.inf, 0.0)
    with pytest.raises(ValueError, match="beta must exceed -1, got nan"):
        JacobiWeight(0.0, math.nan)


@pytest.mark.parametrize("alpha, beta", [(2000.0, 0.0), (0.5, 1e308), (1e308, 1e308)])
def test_mass_overflow_names_the_weight(alpha, beta):
    msg = f"of the weight (alpha, beta) = ({alpha!r}, {beta!r}) overflows a double"
    with pytest.raises(ValueError, match=re.escape(msg)):
        recurrence_coeffs(JacobiWeight(alpha, beta), 3)


def test_legendre_diagonal_vanishes():
    c = recurrence_coeffs(JacobiWeight(0.0, 0.0), 12)
    assert np.all(c.a == 0.0)
    assert c.b[0] == pytest.approx(2.0, abs=1e-15)


def test_chebyshev1_known_coefficients():
    c = recurrence_coeffs(JacobiWeight(-0.5, -0.5), 8)
    assert c.b[0] == pytest.approx(np.pi, rel=1e-14)
    assert c.b[1] == pytest.approx(0.5, rel=1e-13)
    assert np.allclose(c.b[2:], 0.25, rtol=1e-13)


@given(alpha=wexp, beta=wexp)
@settings(max_examples=40)
def test_b0_matches_beta_function(alpha, beta):
    c = recurrence_coeffs(JacobiWeight(alpha, beta), 1)
    assert c.b[0] == pytest.approx(jacobi_b0(alpha, beta), rel=1e-13)


@given(alpha=wexp, beta=wexp)
@settings(max_examples=15)
def test_coefficients_against_moment_ratios(alpha, beta):
    # a_j = <x p_j, p_j>/<p_j, p_j>, b_j = <p_j, p_j>/<p_{j-1}, p_{j-1}>
    # with monic p_j run in high precision via the recurrence itself; the
    # cross-check integrates with an independent 256-point Gauss rule.
    w = JacobiWeight(alpha, beta)
    c = recurrence_coeffs(w, 8)
    big = gauss_rule(w, 256)
    x = big.nodes
    lam = big.weights
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(6):
        num = lam @ (x * p * p)
        den = lam @ (p * p)
        assert num / den == pytest.approx(c.a[j], abs=1e-12 * max(1.0, abs(c.a[j])))
        if j > 0:
            den_prev = lam @ (p_prev * p_prev)
            assert den / den_prev == pytest.approx(c.b[j], rel=1e-11)
        p, p_prev = (x - c.a[j]) * p - (c.b[j] if j > 0 else 0.0) * p_prev, p
    del p


def test_orthonormal_normalization_constant():
    c = recurrence_coeffs(JacobiWeight(0.0, 0.0), 4)
    vals = eval_orthonormal(c, 0.3, 0)
    assert vals[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


def test_orthonormal_legendre_values():
    c = recurrence_coeffs(JacobiWeight(0.0, 0.0), 4)
    assert eval_orthonormal(c, 0.0, 1)[1] == pytest.approx(0.0, abs=1e-15)
    assert eval_orthonormal(c, 1.0, 2)[2] == pytest.approx(np.sqrt(2.5), rel=1e-14)


@given(alpha=wexp, beta=wexp, n=st.integers(min_value=1, max_value=9))
@settings(max_examples=30)
def test_discrete_orthonormality(alpha, beta, n):
    w = JacobiWeight(alpha, beta)
    c = recurrence_coeffs(w, n)
    rule = gauss_rule(w, 2 * n + 2)
    vals = np.stack([eval_orthonormal(c, x, n) for x in rule.nodes])
    gram = vals.T @ (rule.weights[:, None] * vals)
    assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-12


def test_orthonormality_against_quadrature_oracle():
    # continuous check with an integrator that never sees the library rules
    w = JacobiWeight(0.5, -0.25)
    c = recurrence_coeffs(w, 3)
    for i in range(4):
        for j in range(i, 4):
            val = integral_1d(
                lambda t, i=i, j=j: eval_orthonormal(c, t, 3)[i]
                * eval_orthonormal(c, t, 3)[j],
                w.alpha,
                w.beta,
            )
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=5e-9)


def test_non_integral_degree_rejected():
    w = JacobiWeight(0.0, 0.0)
    with pytest.raises(ValueError, match="integer"):
        recurrence_coeffs(w, 3.7)
    assert len(recurrence_coeffs(w, 3.0)) == len(recurrence_coeffs(w, np.int32(3))) == 4
