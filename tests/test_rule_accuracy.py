"""Accuracy of the 1D rules against references that share none of their code.

Three references: closed forms for the Chebyshev weights at any size,
``mpmath.gauss_quadrature`` for Gauss rules of general Jacobi weights, and
``mpmath.eigsy`` on the bordered Jacobi matrix for anti-Gauss rules.  The
tolerances are fixed from eps and the point count m alone: 4 m eps for a
node and 4 (m + 1)^2 eps for a weight's relative error.  QL's node errors
stay within a few eps, its weight errors near (m + 1)^2 eps at worst, so
these bounds hold with room and do not pin any particular rounding.
"""

import mpmath as mp
import numpy as np
import pytest

from squarequad import JacobiWeight, antigauss_rule, gauss_rule

from oracles import jacobi_matrix_rule_mp

EPS = np.finfo(float).eps

CHEB1 = JacobiWeight(-0.5, -0.5)
CHEB2 = JacobiWeight(0.5, 0.5)

# Jacobi exponents for the mpmath references: symmetric and not, negative,
# containment borderline (-0.5, 0), and beyond the benchmark's box
WEIGHTS = [(0.0, 0.0), (-0.5, -0.5), (0.5, 0.5), (1.0, 1.25), (-0.5, 0.0),
           (0.3, -0.2), (-0.45, 1.5), (2.5, -0.75)]


def _assert_close(rule, nodes, weights):
    m = nodes.size
    assert rule.npoints == m
    assert np.max(np.abs(rule.nodes - nodes)) <= 4 * m * EPS
    assert np.max(np.abs(rule.weights - weights) / weights) <= 4 * (m + 1) ** 2 * EPS


def _sorted(nodes, weights):
    order = np.argsort(nodes)
    return nodes[order], weights[order]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 31, 64, 100, 255, 256, 512, 700])
def test_chebyshev_rules_match_closed_forms(n):
    k = np.arange(1, n + 1)
    # Gauss-Chebyshev, first kind: cos((2k - 1) pi / 2n), weights pi / n
    _assert_close(gauss_rule(CHEB1, n),
                  *_sorted(np.cos((2 * k - 1) * np.pi / (2 * n)), np.full(n, np.pi / n)))
    # second kind: cos(k pi / (n + 1)), weights pi / (n + 1) sin^2
    t = k * np.pi / (n + 1)
    _assert_close(gauss_rule(CHEB2, n), *_sorted(np.cos(t), np.pi / (n + 1) * np.sin(t) ** 2))
    # the first-kind anti-Gauss rule is Chebyshev-Lobatto: cos(k pi / n),
    # weights pi / n halved at the two ends
    j = np.arange(n + 1)
    lob = np.full(n + 1, np.pi / n)
    lob[[0, -1]] *= 0.5
    _assert_close(antigauss_rule(CHEB1, n), *_sorted(np.cos(j * np.pi / n), lob))


@pytest.mark.parametrize("alpha,beta", WEIGHTS)
def test_gauss_rules_match_mpmath(alpha, beta):
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        with mp.workdps(40):
            x, w = mp.gauss_quadrature(n, "jacobi", alpha, beta)
            nodes = np.array([float(v) for v in x])
            weights = np.array([float(v) for v in w])
        _assert_close(gauss_rule(JacobiWeight(alpha, beta), n), *_sorted(nodes, weights))


@pytest.mark.parametrize("alpha,beta", WEIGHTS)
def test_antigauss_rules_match_mpmath_eigsy(alpha, beta):
    # the unbordered matrix reproduces mpmath's own Gauss rule, which checks
    # the closed-form recurrence the bordered one is built from
    with mp.workdps(40):
        x, w = mp.gauss_quadrature(5, "jacobi", alpha, beta)
        ref = _sorted(np.array([float(v) for v in x]), np.array([float(v) for v in w]))
    own = jacobi_matrix_rule_mp(alpha, beta, 5)
    assert np.allclose(own[0], ref[0], rtol=0, atol=4 * EPS)
    assert np.allclose(own[1], ref[1], rtol=4 * EPS, atol=0)
    for n in (1, 2, 3, 5, 8, 16):
        nodes, weights = jacobi_matrix_rule_mp(alpha, beta, n, bordered=True)
        _assert_close(antigauss_rule(JacobiWeight(alpha, beta), n), nodes, weights)
