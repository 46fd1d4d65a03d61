import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lengrp.errors import PreconditionError
from lengrp.polynomials import (
    IntPolynomial,
    cyclotomic_order,
    half_trace_transform,
    has_unit_circle_eigenvalue,
    is_irreducible,
    is_squarefree,
    self_reciprocal_part,
    squarefree_part,
    sturm_count,
)

CONNER_CHAR = IntPolynomial((1, -2, 1, -2, 1))  # x^4 - 2x^3 + x^2 - 2x + 1
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))  # Salem, degree 10


def cyclotomic(n):
    poly = sympy.polys.specialpolys.cyclotomic_poly(n, sympy.Symbol("x"))
    coeffs = sympy.Poly(poly).all_coeffs()
    return IntPolynomial(tuple(int(c) for c in reversed(coeffs)))


def pmul(*polys):
    out = (1,)
    for p in polys:
        prod = [0] * (len(out) + len(p.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p.coeffs):
                prod[i + j] += a * b
        out = tuple(prod)
    return IntPolynomial(out)


def test_canonical_form():
    assert IntPolynomial((2, 4, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0, -3)).coeffs == (0, 0, 1)  # leading made positive
    assert IntPolynomial((0,)).is_zero
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((5,)).coeffs == (1,)


def test_degree_and_evaluation():
    p = IntPolynomial((1, -3, 1))  # x^2 - 3x + 1
    assert p.degree == 2
    assert p(0) == 1
    assert p(3) == 1
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    assert p.derivative().coeffs == (-3, 2)
    assert IntPolynomial((7,)).derivative().is_zero


def test_reversal_and_palindromic():
    p = IntPolynomial((1, -3, 1))
    assert p.is_palindromic
    assert p.reversed_() == p
    q = IntPolynomial((1, -3, 0, 1))
    assert not q.is_palindromic
    assert q.reversed_().coeffs == (1, 0, -3, 1)
    assert CONNER_CHAR.is_palindromic


def test_squarefree_part():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    p = IntPolynomial((2, -3, 0, 1))
    assert squarefree_part(p) == IntPolynomial((-2, 1, 1))  # (x-1)(x+2)
    assert squarefree_part(IntPolynomial((-1, 0, 1))) == IntPolynomial((-1, 0, 1))
    with pytest.raises(PreconditionError):
        squarefree_part(IntPolynomial((0,)))


def test_sturm_count():
    p = IntPolynomial((-2, 0, 1))  # x^2 - 2
    assert sturm_count(p, 0, 2) == 1
    assert sturm_count(p, -2, 2) == 2
    assert sturm_count(p, 2, 3) == 0
    with pytest.raises(PreconditionError):
        sturm_count(IntPolynomial((-4, 0, 1)), 0, 2)  # root at endpoint
    with pytest.raises(PreconditionError):
        sturm_count(p, 2, 1)


def test_sturm_against_numpy_roots():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 6))] + [1]
        p = squarefree_part(IntPolynomial(tuple(coeffs)))
        if p.degree < 1 or p(Fraction(-7)) == 0 or p(Fraction(7)) == 0:
            continue
        roots = np.roots(list(reversed(p.coeffs)))
        expected = sum(
            1 for r in roots if abs(r.imag) < 1e-9 and -7 < r.real <= 7
        )
        assert sturm_count(p, -7, 7) == expected


def test_self_reciprocal_part():
    assert self_reciprocal_part(CONNER_CHAR) == CONNER_CHAR
    # x^2 - x - 1 shares no factor with its reversal -x^2 - x + 1
    golden = IntPolynomial((-1, -1, 1))
    assert self_reciprocal_part(golden).degree == 0
    with pytest.raises(PreconditionError):
        self_reciprocal_part(IntPolynomial((0, 1)))


def test_half_trace_transform():
    assert half_trace_transform(IntPolynomial((1, -3, 1))) == IntPolynomial((-3, 1))
    assert half_trace_transform(CONNER_CHAR) == IntPolynomial((-1, -2, 1))
    assert half_trace_transform(IntPolynomial((1, 0, 0, 0, 1))) == IntPolynomial((-2, 0, 1))
    with pytest.raises(PreconditionError):
        half_trace_transform(IntPolynomial((1, -3, 0, 1)))  # not palindromic


def test_half_trace_substitution_identity():
    # r(x) = s * x^m * q(x + 1/x) for a fixed scalar s (q is canonicalized)
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        half = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        coeffs = half + [rng.randint(-3, 3)] + half[::-1]
        r = IntPolynomial(tuple(coeffs))
        if r.degree < 2 or r.degree % 2 or not r.is_palindromic:
            continue
        q = half_trace_transform(r)
        m = r.degree // 2
        ratios = set()
        for num in (2, 3, -5, 4):
            x = Fraction(num, 7)
            lhs = Fraction(r(x))
            rhs = x ** m * q(x + 1 / x)
            if rhs != 0:
                ratios.add(lhs / rhs)
        assert len(ratios) == 1
        checked += 1
    assert checked > 10


def test_unit_circle_detection_goldens():
    assert has_unit_circle_eigenvalue(CONNER_CHAR)
    assert not has_unit_circle_eigenvalue(IntPolynomial((1, -3, 1)))
    assert has_unit_circle_eigenvalue(IntPolynomial((-1, 1)))  # x - 1
    assert has_unit_circle_eigenvalue(IntPolynomial((1, 1)))  # x + 1
    assert not has_unit_circle_eigenvalue(IntPolynomial((-1, -1, 1)))
    for n in (3, 4, 5, 6, 8, 12):
        assert has_unit_circle_eigenvalue(cyclotomic(n))
    with pytest.raises(PreconditionError):
        has_unit_circle_eigenvalue(IntPolynomial((2, 0, 1)))  # non-unit constant


def test_unit_circle_detection_random_cross_check():
    rng = random.Random(3)
    for _ in range(100):
        deg = rng.randint(2, 6)
        coeffs = [rng.choice([-1, 1])] + [rng.randint(-3, 3) for _ in range(deg - 1)] + [1]
        p = IntPolynomial(tuple(coeffs))
        if abs(p.constant_term) != 1:
            continue
        roots = np.roots(list(reversed(p.coeffs)))
        moduli = sorted(abs(r) for r in roots)
        if any(1e-12 < abs(m - 1) < 1e-4 for m in moduli):
            continue  # numerically ambiguous; the exact answer is the oracle
        assert has_unit_circle_eigenvalue(p) == any(abs(m - 1) < 1e-9 for m in moduli)


def test_irreducibility():
    assert is_irreducible(CONNER_CHAR)
    assert is_irreducible(IntPolynomial((1, -3, 1)))
    assert is_irreducible(cyclotomic(5))
    assert not is_irreducible(IntPolynomial((-1, 0, 1)))  # x^2 - 1
    assert not is_irreducible(IntPolynomial((1, 0, 2, 0, 1)))  # (x^2+1)^2
    assert is_irreducible(IntPolynomial((2, 2)))  # canonicalizes to x + 1
    assert not is_irreducible(IntPolynomial((1, 2, 2, 2, 1)))  # (x^2+1)(x+1)^2
    with pytest.raises(PreconditionError):
        is_irreducible(IntPolynomial((7,)))


def test_irreducibility_without_a_rational_root():
    # reducible modulo every prime, irreducible over Q
    assert is_irreducible(IntPolynomial((1, 0, 0, 0, 1)))  # x^4 + 1
    assert is_irreducible(IntPolynomial((1, 0, -10, 0, 1)))  # minimal poly of sqrt2 + sqrt3
    assert is_irreducible(IntPolynomial((576, 0, -960, 0, 352, 0, -40, 0, 1)))
    assert is_irreducible(LEHMER)
    for k in (5, 7, 8, 9, 12, 15, 16, 20, 24, 30):
        assert is_irreducible(cyclotomic(k))
    # products of factors of degree >= 2, monic and not
    assert not is_irreducible(pmul(cyclotomic(4), cyclotomic(3)))
    assert not is_irreducible(pmul(cyclotomic(8), cyclotomic(12)))
    assert not is_irreducible(pmul(IntPolynomial((1, 0, 2)), IntPolynomial((1, 1, 3))))
    assert not is_irreducible(pmul(CONNER_CHAR, LEHMER))
    assert not is_irreducible(pmul(IntPolynomial((1, 0, 0, 0, 1)),
                                   IntPolynomial((1, 0, -10, 0, 1))))
    assert not is_irreducible(pmul(cyclotomic(5), cyclotomic(5)))  # repeated factor


@st.composite
def int_polys(draw, min_degree, max_degree):
    deg = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg))
    return IntPolynomial(tuple(coeffs) + (draw(st.sampled_from([1, 1, 2, 3, 6])),))


def sympy_irreducible(p):
    return bool(sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x")).is_irreducible)


IRREDUCIBLE_SETTINGS = settings(max_examples=150, derandomize=True, database=None,
                                deadline=None)


@IRREDUCIBLE_SETTINGS
@given(int_polys(1, 12))
def test_irreducibility_matches_sympy(p):
    assert is_irreducible(p) == sympy_irreducible(p)


@IRREDUCIBLE_SETTINGS
@given(st.lists(int_polys(2, 5), min_size=2, max_size=3))
def test_irreducibility_of_products_matches_sympy(parts):
    p = pmul(*parts)
    assert not is_irreducible(p)
    assert is_irreducible(p) == sympy_irreducible(p)


def test_is_squarefree():
    assert is_squarefree(IntPolynomial((-1, 0, 1)))  # (x - 1)(x + 1)
    assert not is_squarefree(IntPolynomial((1, -2, 1)))  # (x - 1)^2
    assert is_squarefree(CONNER_CHAR)
    assert is_squarefree(LEHMER)
    assert not is_squarefree(pmul(LEHMER, LEHMER))
    assert is_squarefree(IntPolynomial((1,)))


def test_cyclotomic_order_goldens():
    assert cyclotomic_order(pmul(cyclotomic(1), cyclotomic(2))) == 2
    assert cyclotomic_order(pmul(cyclotomic(2), cyclotomic(3))) == 6
    # the order-6 element [[0, -1], [1, 1]] of GL_2(Z) has polynomial Phi_6
    assert cyclotomic_order(cyclotomic(6)) == 6
    assert cyclotomic_order(pmul(cyclotomic(1), cyclotomic(1))) is None
    assert cyclotomic_order(pmul(cyclotomic(5), cyclotomic(3), cyclotomic(5))) is None
    assert cyclotomic_order(LEHMER) is None
    assert cyclotomic_order(CONNER_CHAR) is None
    assert cyclotomic_order(IntPolynomial((1, -3, 1))) is None
    assert cyclotomic_order(IntPolynomial((2, 0, 1))) is None  # x^2 + 2
    assert cyclotomic_order(IntPolynomial((1, 0, 2))) is None  # not monic
    assert cyclotomic_order(pmul(cyclotomic(4), cyclotomic(6), cyclotomic(10))) == 60
    with pytest.raises(PreconditionError):
        cyclotomic_order(IntPolynomial((0,)))


def test_cyclotomic_order_of_single_factors_and_binomials():
    for k in range(1, 80):
        assert cyclotomic_order(cyclotomic(k)) == k
    # x^N - 1 is the product of Phi_d over all d | N, each once
    for n in range(1, 40):
        assert cyclotomic_order(IntPolynomial((-1,) + (0,) * (n - 1) + (1,))) == n
    # x^N + 1 divides x^2N - 1 but not x^N - 1
    for n in range(1, 40):
        assert cyclotomic_order(IntPolynomial((1,) + (0,) * (n - 1) + (1,))) == 2 * n
