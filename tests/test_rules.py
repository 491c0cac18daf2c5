"""Univariate Gauss and anti-Gauss rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarequad import (
    CapacityError,
    JacobiWeight,
    antigauss_rule,
    gauss_rule,
    nodes_contained,
    recurrence_coeffs,
)

from oracles import integral_poly, jacobi_b0, ql_numpy_scalars

wexp = st.floats(min_value=-0.45, max_value=2.0, allow_nan=False)


def test_gauss_legendre_n2():
    r = gauss_rule(JacobiWeight(0.0, 0.0), 2)
    assert r.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], rel=1e-15)
    assert r.weights == pytest.approx([1.0, 1.0], rel=1e-14)


def test_gauss_chebyshev1_closed_form():
    r = gauss_rule(JacobiWeight(-0.5, -0.5), 4)
    want = np.sort(np.cos((2 * np.arange(1, 5) - 1) * np.pi / 8))
    assert r.nodes == pytest.approx(want, abs=1e-14)
    assert r.weights == pytest.approx(np.full(4, np.pi / 4), rel=1e-13)


def test_gauss_chebyshev2_closed_form():
    # second-kind: x_j = cos(j pi/(n+1)), lambda_j = pi/(n+1) sin^2(j pi/(n+1))
    n = 9
    r = gauss_rule(JacobiWeight(0.5, 0.5), n)
    j = np.arange(n, 0, -1)
    want_x = np.cos(j * np.pi / (n + 1))
    want_l = np.pi / (n + 1) * np.sin(j * np.pi / (n + 1)) ** 2
    assert r.nodes == pytest.approx(want_x, abs=1e-14)
    assert r.weights == pytest.approx(want_l, rel=1e-12)


def test_single_node_rule():
    w = JacobiWeight(1.0, 0.25)
    r = gauss_rule(w, 1)
    assert len(r.nodes) == 1
    assert r.weights[0] == pytest.approx(jacobi_b0(1.0, 0.25), rel=1e-13)


def test_antigauss_legendre_n1_closed_form():
    r = antigauss_rule(JacobiWeight(0.0, 0.0), 1)
    assert r.nodes == pytest.approx([-np.sqrt(2 / 3), np.sqrt(2 / 3)], rel=1e-14)
    assert r.weights == pytest.approx([1.0, 1.0], rel=1e-13)


def test_antigauss_chebyshev1_endpoints():
    for n in (1, 2, 3, 4, 6, 8, 16, 19, 32):
        r = antigauss_rule(JacobiWeight(-0.5, -0.5), n)
        assert r.nodes[0] == -1.0, n
        assert r.nodes[-1] == 1.0, n
        assert r.contained


@given(alpha=wexp, beta=wexp, n=st.integers(1, 24))
@settings(max_examples=100)
def test_weights_positive_and_sum_to_b0(alpha, beta, n):
    w = JacobiWeight(alpha, beta)
    b0 = jacobi_b0(alpha, beta)
    for r in (gauss_rule(w, n), antigauss_rule(w, n)):
        assert np.all(r.weights > 0)
        assert np.sum(r.weights) == pytest.approx(b0, rel=1e-13)


@given(alpha=wexp, beta=wexp, n=st.integers(1, 20))
@settings(max_examples=100)
def test_interlacing(alpha, beta, n):
    w = JacobiWeight(alpha, beta)
    x = gauss_rule(w, n).nodes
    eta = antigauss_rule(w, n).nodes
    assert len(eta) == n + 1
    assert np.all(eta[:-1] < x)
    assert np.all(x < eta[1:])


def test_gauss_nodes_strictly_interior():
    for w in (JacobiWeight(-0.5, -0.5), JacobiWeight(0.5, 0.5), JacobiWeight(0, 0)):
        r = gauss_rule(w, 40)
        assert np.all(np.abs(r.nodes) < 1.0)


def test_nodes_contained_classification():
    assert nodes_contained(JacobiWeight(0.0, 0.0))
    assert nodes_contained(JacobiWeight(0.5, 0.5))
    assert nodes_contained(JacobiWeight(-0.5, -0.5))
    assert not nodes_contained(JacobiWeight(-0.9, 0.0))
    # one-sided violation: the containment test is per endpoint
    assert not nodes_contained(JacobiWeight(-0.5, 0.0))


def test_uncontained_rule_flagged_but_constructed():
    r = antigauss_rule(JacobiWeight(-0.5, 0.0), 8)
    assert not r.contained
    assert len(r.nodes) == 9
    assert np.sum(r.weights) == pytest.approx(jacobi_b0(-0.5, 0.0), rel=1e-12)


@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_gauss_degree_exactness_vs_moment_oracle(n, seed):
    rng = np.random.default_rng(seed)
    w = JacobiWeight(0.25, 1.5)
    coef = rng.standard_normal(2 * n)
    exact = integral_poly(coef[:, None], w.alpha, w.beta, 0.0, 0.0) / 2.0
    r = gauss_rule(w, n)
    got = r.weights @ np.polynomial.polynomial.polyval(r.nodes, coef)
    scale = max(1.0, np.sum(np.abs(coef)))
    assert abs(got - exact) < 1e-12 * scale


@pytest.mark.parametrize("make", [gauss_rule, antigauss_rule])
def test_rule_size_capped_before_the_eigensolver(make, monkeypatch):
    import squarequad.rules as rules

    def no_ql(*args):
        raise AssertionError("QL started above the size cap")

    monkeypatch.setattr(rules, "eig_tridiag", no_ql)
    cap = rules._RULE_CAP
    with pytest.raises(CapacityError, match=f"{cap + 1} points exceeds the cap of {cap}"):
        make(JacobiWeight(0.25, -0.5), cap + 1)


@pytest.mark.parametrize("make", [gauss_rule, antigauss_rule])
def test_non_integral_size_rejected(make):
    w = JacobiWeight(0.0, 0.0)
    for bad in (2.5, np.float64(2.5), float("inf"), float("nan"), "3", True):
        with pytest.raises(ValueError):
            make(w, bad)
    ref = make(w, 3)
    for ok in (3.0, np.int64(3), np.float32(3.0)):
        assert make(w, ok) is ref


def _ql_rule(w, n, companion):
    # Golub-Welsch on the order-n Jacobi matrix, or on the order-(n+1) one whose
    # last off-diagonal entry is bordered to sqrt(2 b_n) (Laurie 1996)
    c = recurrence_coeffs(w, n)
    m = n + 1 if companion else n
    off = np.sqrt(c.b[1:m])
    if companion:
        off[-1] = np.sqrt(2.0 * c.b[n])
    x, first = ql_numpy_scalars(c.a[:m], off)
    if companion and nodes_contained(w):
        near = np.abs(np.abs(x) - 1.0) <= 8.0 * np.finfo(float).eps
        x[near] = np.sign(x[near])
    return x, c.b[0] * first**2


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.5, 0.5), (0.0, 0.0), (-0.5, 0.0), (1.0, 1.25)])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
def test_rules_match_ql_oracle_bit_for_bit(ab, n):
    w = JacobiWeight(*ab)
    for rule, companion in ((gauss_rule(w, n), False), (antigauss_rule(w, n), True)):
        x, lam = _ql_rule(w, n, companion)
        assert np.array_equal(rule.nodes, x), (rule.kind, ab, n)
        assert np.array_equal(rule.weights, lam), (rule.kind, ab, n)
