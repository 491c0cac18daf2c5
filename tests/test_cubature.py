"""Tensor-product cubature, error estimation, bracketing diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarequad import (
    BracketingReport,
    EvaluationError,
    JacobiWeight,
    antigauss_cubature,
    averaged_cubature,
    bracketing_diagnostic,
    chebyshev_bracketing_terms,
    error_estimate,
    gauss_cubature,
    gauss_rule,
)
from squarequad import linsolve
from squarequad.cubature import _coefficient_matrix
from squarequad.testproblems import get_case

from oracles import (
    chebyshev_bracketing_oracle,
    chebyshev_coefficients,
    integral_poly,
    jacobi_b0,
    random_poly_pair,
)

LEG = JacobiWeight(0.0, 0.0)
CH1 = JacobiWeight(-0.5, -0.5)


def test_product_weights_and_positivity():
    r = antigauss_cubature(JacobiWeight(0.5, 0.5), LEG, 3, 4)
    w1 = r.rule1.weights
    w2 = r.rule2.weights
    assert r.weights == pytest.approx(np.outer(w1, w2).ravel(order="F"), rel=1e-15)
    assert np.all(r.weights > 0)


def test_gauss_constant_mass():
    r = gauss_cubature(JacobiWeight(0.25, 0.75), CH1, 5, 6)
    mass = jacobi_b0(0.25, 0.75) * jacobi_b0(-0.5, -0.5)
    assert r.apply(lambda a, b: np.ones_like(a)) == pytest.approx(mass, rel=1e-13)


def test_gauss_odd_symmetry():
    r = gauss_cubature(LEG, LEG, 4, 5)
    assert r.apply(lambda a, b: a * b) == pytest.approx(0.0, abs=1e-14)


def test_apply_simple_polynomial():
    r = gauss_cubature(LEG, LEG, 2, 2)
    assert r.apply(lambda a, b: a * a + b * b) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_apply_rejects_nonfinite():
    r = gauss_cubature(LEG, LEG, 3, 3)
    with pytest.raises(EvaluationError):
        r.apply(lambda a, b: np.where(a > 0, np.nan, 1.0))


def test_zero_function():
    r = averaged_cubature(LEG, LEG, 3, 3)
    assert r.apply(lambda a, b: np.zeros_like(a)) == 0.0


@pytest.mark.parametrize("make", [gauss_cubature, antigauss_cubature, averaged_cubature])
def test_flat_arrays_are_the_tensor_formulas(make):
    r = make(JacobiWeight(0.3, -0.2), CH1, 5, 7)
    g = gauss_cubature(JacobiWeight(0.3, -0.2), CH1, 5, 7)
    a = antigauss_cubature(JacobiWeight(0.3, -0.2), CH1, 5, 7)
    parts = {"gauss": [(1.0, g)], "antigauss": [(1.0, a)], "averaged": [(0.5, g), (0.5, a)]}
    x1, x2, lam = [], [], []
    for scale, t in parts[r.kind]:
        f1, f2 = t.rule1, t.rule2
        x1.append(np.tile(f1.nodes, f2.npoints))
        x2.append(np.repeat(f2.nodes, f1.npoints))
        lam.append(scale * np.outer(f2.weights, f1.weights).ravel())
    assert np.array_equal(r.nodes1, np.concatenate(x1))
    assert np.array_equal(r.nodes2, np.concatenate(x2))
    assert np.array_equal(r.weights, np.concatenate(lam))
    assert r.npoints == r.weights.size
    assert not (r.nodes1.flags.writeable or r.nodes2.flags.writeable or r.weights.flags.writeable)
    # the value is the flat weighted sum, up to the order of the additions
    f = lambda u, v: np.cos(u + 2.0 * v) + 1.5
    flat = math.fsum(r.weights * f(r.nodes1, r.nodes2))
    assert r.apply(f) == pytest.approx(flat, rel=4 * np.finfo(float).eps)


def _first_bad_node(r, bad):
    i = int(np.argmax(bad(r.nodes1, r.nodes2)))
    return i, (r.nodes1[i], r.nodes2[i])


def test_apply_names_the_first_nonfinite_node_of_a_later_block(monkeypatch):
    # blocks of two rows of 6 points; the first bad node sits in row 5
    monkeypatch.setattr(linsolve, "_BLOCK_ENTRIES", 12)
    r = gauss_cubature(LEG, CH1, 6, 7)
    z1, z2 = r.rule1.nodes, r.rule2.nodes
    bad = lambda a, b: (b >= z2[5]) & (a >= z1[3])
    i, node = _first_bad_node(r, bad)
    assert i == 5 * 6 + 3
    with pytest.raises(EvaluationError, match="at node") as err:
        r.apply(lambda a, b: np.where(bad(a, b), np.inf, 1.0))
    assert err.value.node == node
    assert f"({node[0]:.17g}, {node[1]:.17g})" in str(err.value)


def test_apply_names_the_first_nonfinite_node_in_the_antigauss_half():
    r = averaged_cubature(LEG, CH1, 4, 3)
    a = antigauss_cubature(LEG, CH1, 4, 3)
    # an anti-Gauss node of row 2, column 1; no Gauss node matches it
    target = (a.rule1.nodes[1], a.rule2.nodes[2])
    bad = lambda u, v: (u == target[0]) & (v == target[1])
    i, node = _first_bad_node(r, bad)
    assert i == 4 * 3 + 2 * 5 + 1 and node == target
    with pytest.raises(EvaluationError) as err:
        r.apply(lambda u, v: np.where(bad(u, v), np.nan, 0.0))
    assert err.value.node == target


def test_large_rule_builds_and_applies_in_small_memory():
    # the flat arrays alone are 6 MB at 512 x 512; apply never builds them
    gauss_rule(LEG, 512)
    tracemalloc.start()
    try:
        value = gauss_cubature(LEG, LEG, 512, 512).apply(lambda a, b: np.exp(a) * np.cos(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx((math.e - 1.0 / math.e) * 2.0 * math.sin(1.0), rel=1e-14)
    assert peak < 8 * 2**20


def test_averaged_node_count():
    r = averaged_cubature(LEG, CH1, 4, 6)
    assert len(r.weights) == 4 * 6 + 5 * 7


def test_uncontained_rejected_without_flag():
    with pytest.raises(ValueError):
        antigauss_cubature(JacobiWeight(-0.5, 0.0), LEG, 4, 4)
    r = antigauss_cubature(JacobiWeight(-0.5, 0.0), LEG, 4, 4, allow_uncontained=True)
    assert len(r.rule1.nodes) == 5


@given(n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**31))
@settings(max_examples=60)
def test_gauss_exactness_class(n1, n2, seed):
    rng = np.random.default_rng(seed)
    c, p = random_poly_pair(rng, 2 * n1 - 1, 2 * n2 - 1)
    w1, w2 = JacobiWeight(0.5, 0.5), LEG
    exact = integral_poly(c, w1.alpha, w1.beta, w2.alpha, w2.beta)
    got = gauss_cubature(w1, w2, n1, n2).apply(p)
    assert abs(got - exact) < 1e-12 * max(1.0, np.sum(np.abs(c)))


@given(n1=st.integers(1, 5), n2=st.integers(1, 5), seed=st.integers(0, 2**31))
@settings(max_examples=60)
def test_antigauss_reflection(n1, n2, seed):
    # on the extended class the anti-rule mirrors the Gauss error
    rng = np.random.default_rng(seed)
    axis = rng.integers(2)
    degs = (2 * n1 + 1, 2 * n2 - 1) if axis == 0 else (2 * n1 - 1, 2 * n2 + 1)
    c, p = random_poly_pair(rng, *degs)
    w1, w2 = LEG, JacobiWeight(0.5, 0.5)
    exact = integral_poly(c, w1.alpha, w1.beta, w2.alpha, w2.beta)
    g = gauss_cubature(w1, w2, n1, n2).apply(p)
    a = antigauss_cubature(w1, w2, n1, n2).apply(p)
    scale = max(1.0, np.sum(np.abs(c)))
    assert abs((exact - a) + (exact - g)) < 1e-10 * scale
    assert min(g, a) <= exact + 1e-10 * scale
    assert exact - 1e-10 * scale <= max(g, a)
    # averaged rule is exact on the union class
    avg = averaged_cubature(w1, w2, n1, n2).apply(p)
    assert abs(avg - exact) < 1e-10 * scale


def test_error_estimate_identity_on_extended_class(rng):
    n1, n2 = 4, 3
    c, p = random_poly_pair(rng, 2 * n1 + 1, 2 * n2 - 1)
    exact = integral_poly(c, 0.0, 0.0, 0.0, 0.0)
    g = gauss_cubature(LEG, LEG, n1, n2).apply(p)
    est = error_estimate(p, LEG, LEG, n1, n2)
    assert est == pytest.approx(exact - g, abs=1e-11 * max(1.0, np.sum(np.abs(c))))


def test_bracketing_diagnostic_vanishes_on_core_class(rng):
    n1 = n2 = 3
    _, p = random_poly_pair(rng, 2 * n1 - 1, 2 * n2 - 1)
    rep = bracketing_diagnostic(p, LEG, LEG, n1, n2)
    assert abs(rep.S) < 1e-10
    assert abs(rep.E1) < 1e-10
    assert abs(rep.E2) < 1e-10


def test_bracketing_diagnostic_reconstructs_rule_errors():
    # -S + E1 and S + E2 must equal the two cubature errors
    f = lambda a, b: np.cos(a + b) * np.exp(0.3 * a)
    n1 = n2 = 6
    rep = bracketing_diagnostic(f, LEG, LEG, n1, n2)
    ref = gauss_cubature(LEG, LEG, 64, 64).apply(f)
    rg = ref - gauss_cubature(LEG, LEG, n1, n2).apply(f)
    ra = ref - antigauss_cubature(LEG, LEG, n1, n2).apply(f)
    assert -rep.S + rep.E1 == pytest.approx(rg, rel=1e-8, abs=1e-13)
    assert rep.S + rep.E2 == pytest.approx(ra, rel=1e-8, abs=1e-13)


def test_bracketing_diagnostic_names_a_nonfinite_coefficient_node():
    # the coefficients run on Gauss rules of cutoff + 9 points per axis
    w1 = JacobiWeight(0.5, -0.25)
    x1, x2 = gauss_rule(w1, 10 + 9).nodes[4], gauss_rule(LEG, 12 + 9).nodes[7]
    f = lambda a, b: np.where((a == x1) & (b == x2), np.nan, np.cos(a + b))
    with pytest.raises(EvaluationError, match=re.escape(
        f"integrand not finite at ({x1:.17g}, {x2:.17g})"
    )) as err:
        bracketing_diagnostic(f, w1, LEG, 2, 2, cutoffs=(10, 12))
    assert err.value.node == (x1, x2)


# smooth integrands for the Chebyshev oracle and the theta checks
INTEGRANDS = (
    lambda a, b: np.cos(2.0 * a + b) + 0.5 * a * b,
    lambda a, b: np.exp(a * b),
    lambda a, b: np.sin(3.0 * a) * np.exp(-b * b),
)


def test_chebyshev_terms_match_the_lattice_oracle():
    # the general series on Chebyshev moments against the closed-form
    # lattice sums, both on the library's coefficient matrix; cutoffs
    # from the 2n + 1 minimum to the 6 max(n1, n2) default
    for f in INTEGRANDS + (lambda a, b: np.abs(a - 0.3) ** 2.5 * np.cos(b),):
        for n1, n2 in ((1, 1), (2, 2), (3, 5), (8, 4), (10, 10), (20, 20)):
            for cutoffs in (None, (2 * n1 + 1, 2 * n2 + 1), (4 * n1 + 3, 3 * n2)):
                rep = chebyshev_bracketing_terms(f, n1, n2, cutoffs)
                alpha = _coefficient_matrix(f, CH1, CH1, rep.cutoff1, rep.cutoff2)[0]
                S, E1, E2, theta = chebyshev_bracketing_oracle(alpha, n1, n2)
                for got, want in ((rep.S, S), (rep.E1, E1), (rep.E2, E2), (rep.theta, theta)):
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-16), (n1, n2, cutoffs)
                assert rep.holds == (max(abs(E1), abs(E2)) < abs(S))
                assert rep.holds_theta == (theta < abs(S))


def test_chebyshev_coefficients_match_the_cosine_oracle():
    # the library's coefficients (recurrences, QL nodes) against cos(k t)
    # on the closed-form Gauss-Chebyshev rule
    for f in INTEGRANDS:
        for m1, m2 in ((10, 10), (40, 25), (120, 120), (180, 60)):
            alpha = _coefficient_matrix(f, CH1, CH1, m1, m2)[0]
            want = chebyshev_coefficients(f, m1, m2)
            assert np.max(np.abs(alpha - want)) < 2e-13 * np.max(np.abs(want)), (m1, m2)


# five Jacobi weights (alpha, beta), each on both axes once
THETA_WEIGHTS = [(0.0, 0.0), (-0.5, -0.5), (0.5, -0.25), (1.3, 0.2), (0.5, 0.5)]
THETA_PAIRS = list(zip(THETA_WEIGHTS, THETA_WEIGHTS[1:] + THETA_WEIGHTS[:1]))


@pytest.mark.parametrize(
    "e1, e2", THETA_PAIRS, ids=[f"{a[0]},{a[1]}x{b[0]},{b[1]}" for a, b in THETA_PAIRS]
)
def test_theta_majorizes_both_remainders(e1, e2):
    w1, w2 = JacobiWeight(*e1), JacobiWeight(*e2)
    for f in INTEGRANDS:
        for n1, n2 in ((2, 4), (4, 7), (7, 2)):
            rep = bracketing_diagnostic(f, w1, w2, n1, n2)
            assert rep.theta >= max(abs(rep.E1), abs(rep.E2)) * (1 - 1e-12), (n1, n2)
            assert rep.holds or not rep.holds_theta, (n1, n2)


def test_theta_on_figure1():
    # ROADMAP's values: theta / |S| = 0.62 at cub2 (20, 20); on the
    # fig1-left sweep theta passes |S| only at n1 = 29 and 30
    cub2 = get_case("cub2")
    rep = bracketing_diagnostic(cub2.integrand, cub2.w1, cub2.w2, 20, 20)
    assert rep.theta / abs(rep.S) == pytest.approx(0.62, abs=0.01)
    cub1 = get_case("cub1")
    over = [
        n1 for n1 in range(1, 31)
        if not bracketing_diagnostic(cub1.integrand, cub1.w1, cub1.w2, n1, 8).holds_theta
    ]
    assert over == [29, 30]


def test_chebyshev_terms_zero_for_core_poly(rng):
    _, p = random_poly_pair(rng, 5, 5)
    rep = chebyshev_bracketing_terms(p, 3, 3)
    assert abs(rep.theta) < 1e-10


def bracketing(w1, w2, n1, n2):
    return bracketing_diagnostic(INTEGRANDS[0], w1, w2, n1, n2)


def chebyshev(w1, w2, n1, n2):
    return chebyshev_bracketing_terms(INTEGRANDS[0], n1, n2)


@pytest.mark.parametrize("make", [
    gauss_cubature, antigauss_cubature, averaged_cubature, bracketing, chebyshev,
])
def test_non_integral_sizes_rejected(make):
    with pytest.raises(ValueError, match="n1 must be an integer, got 2.5"):
        make(LEG, LEG, 2.5, 3)
    with pytest.raises(ValueError, match="n2 must be an integer"):
        make(LEG, LEG, 2, 3.9)
    with pytest.raises(ValueError, match=re.escape("rule sizes must be positive, got (0, 3)")):
        make(LEG, LEG, 0, 3)
    r = make(LEG, LEG, 2.0, np.int64(3))
    if isinstance(r, BracketingReport):
        assert r == make(LEG, LEG, 2, 3)
        return
    assert (r.n1, r.n2) == (2, 3) and type(r.n1) is int and type(r.n2) is int
    assert r.npoints == make(LEG, LEG, 2, 3).npoints


@pytest.mark.parametrize("diagnostic", [
    lambda f, cutoffs: bracketing_diagnostic(f, CH1, CH1, 2, 2, cutoffs=cutoffs),
    lambda f, cutoffs: chebyshev_bracketing_terms(f, 2, 2, cutoffs=cutoffs),
])
def test_non_integral_cutoffs_rejected(diagnostic):
    f = lambda a, b: np.cos(a + b)
    with pytest.raises(ValueError, match="cutoff1 must be an integer"):
        diagnostic(f, (10.7, 10))
    with pytest.raises(ValueError, match="cutoff2 must be an integer"):
        diagnostic(f, (10, 10.2))
    rep = diagnostic(f, (10.0, np.int64(10)))
    assert (rep.cutoff1, rep.cutoff2) == (10, 10)
    assert rep == diagnostic(f, (10, 10))
