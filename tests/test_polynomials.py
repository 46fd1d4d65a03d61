import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lengrp.errors import PreconditionError
from lengrp.polynomials import (
    IntPolynomial,
    _div,
    _trim,
    cyclotomic_order,
    half_trace_transform,
    has_unit_circle_eigenvalue,
    is_irreducible,
    is_squarefree,
    self_reciprocal_part,
    squarefree_part,
    sturm_count,
    unit_circle_root,
    vanishes_at,
)

CONNER_CHAR = IntPolynomial((1, -2, 1, -2, 1))  # x^4 - 2x^3 + x^2 - 2x + 1
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))  # Salem, degree 10


def cyclotomic(n):
    poly = sympy.polys.specialpolys.cyclotomic_poly(n, sympy.Symbol("x"))
    coeffs = sympy.Poly(poly).all_coeffs()
    return IntPolynomial(tuple(int(c) for c in reversed(coeffs)))


def list_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def pmul(*polys):
    out = [1]
    for p in polys:
        out = list_mul(out, p.coeffs)
    return IntPolynomial(tuple(out))


def test_canonical_form():
    assert IntPolynomial((2, 4, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0, -3)).coeffs == (0, 0, 1)  # leading made positive
    assert IntPolynomial((0,)).is_zero
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((5,)).coeffs == (1,)


@pytest.mark.parametrize("coeff", [1.5, True, "7"])
def test_non_integer_coefficients_are_rejected(coeff):
    with pytest.raises(PreconditionError, match="expected an integer"):
        IntPolynomial((coeff, 1))


def test_index_coefficients_become_ints():
    p = IntPolynomial((np.int64(-3), 1))
    assert p.coeffs == (-3, 1) and all(type(c) is int for c in p.coeffs)


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


@pytest.mark.parametrize("expr", [
    "(2*x + 1)**2 * (x - 3)",
    "-(3*x - 2)**3 * (2*x + 5)**2 * (x**2 + 1)",
    "6 * (5*x**2 - 2)**2 * (4*x + 3)",
])
def test_squarefree_part_of_non_monic_input_matches_sympy(expr):
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.sympify(expr), x)
    p = IntPolynomial(tuple(int(c) for c in reversed(poly.all_coeffs())))
    expected = sympy.sqf_part(poly).all_coeffs()
    assert squarefree_part(p) == IntPolynomial(tuple(int(c) for c in reversed(expected)))


def sympy_quotient(a, b):
    """The quotient a / b in Z[x] from sympy's division over Q, or None."""
    x = sympy.Symbol("x")
    q, r = sympy.div(sympy.Poly(list(reversed(a)) or [0], x), sympy.Poly(list(reversed(b)), x))
    if not r.is_zero or not all(c.is_integer for c in q.all_coeffs()):
        return None
    return _trim([int(c) for c in reversed(q.all_coeffs())])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=4), st.sampled_from([1, -1, 2, -3, 6]),
       st.lists(st.integers(-5, 5), max_size=5), st.sampled_from([1, -2, 3]),
       st.sampled_from([1, 2, 3]), st.one_of(st.just([]), st.lists(st.integers(-5, 5))))
@example([1], 1, [2, 0], 1, 1, [])  # monic divisor, exact
@example([1], 2, [1, 1], 3, 1, [])  # non-monic divisor, exact
@example([-1, 0], 1, [0, 0], 1, 1, [1])  # monic divisor, nonzero remainder
@example([1], 2, [1], 1, 2, [])  # divides over Q, quotient not integral
def test_div_matches_sympy(b_low, b_lead, q_low, q_lead, scale, r):
    """b = scale * b0 and a = b0 * q + r, so inexact pairs come both from
    remainders and from quotients that are rational but not integral."""
    b0, q = b_low + [b_lead], q_low + [q_lead]
    b = [scale * c for c in b0]
    a = list_mul(b0, q)
    a = _trim([c + (r[i] if i < len(r) else 0) for i, c in enumerate(a)] + r[len(a):])
    expected = sympy_quotient(a, b)
    assert _div(a, b) == expected
    if expected is not None:
        assert _trim(list_mul(b, expected)) == a


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


def test_unit_circle_root_goldens():
    assert unit_circle_root(IntPolynomial((-1, 1))) == 1
    assert unit_circle_root(IntPolynomial((-1, 0, 1))) == 1  # 1 before -1
    assert unit_circle_root(IntPolynomial((1, 1))) == -1
    assert unit_circle_root(IntPolynomial((1, -3, 1))) is None
    q, lo, hi = unit_circle_root(CONNER_CHAR)  # y0 = 1 - sqrt(2)
    assert lo < 1 - 2 ** 0.5 < hi and sturm_count(q, lo, hi) == 1
    # omega (y = -1) and i (y = 0): the least y is a rational root
    root = unit_circle_root(pmul(cyclotomic(4), cyclotomic(3)))
    q, lo, hi = root
    assert lo < -1 < hi and sturm_count(q, lo, hi) == 1
    assert vanishes_at(cyclotomic(3), root) and not vanishes_at(cyclotomic(4), root)
    assert vanishes_at(IntPolynomial((-1, 1)), 1) and not vanishes_at(IntPolynomial((1, 1)), 1)
    with pytest.raises(PreconditionError):
        unit_circle_root(IntPolynomial((2, 0, 1)))


UNIT_ROOT_FACTORS = [cyclotomic(k) for k in (1, 2, 3, 4, 5, 6, 8, 12)] + [
    CONNER_CHAR, LEHMER, IntPolynomial((1, -3, 1)), IntPolynomial((-1, -1, 0, 1)),
]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(UNIT_ROOT_FACTORS), min_size=1, max_size=4))
def test_unit_circle_root_isolates_the_least_half_trace(factors):
    root = unit_circle_root(pmul(*factors))
    on_circle = [z for f in set(factors) for z in np.roots(list(reversed(f.coeffs)))
                 if abs(abs(z) - 1) < 1e-6]
    if root is None:
        assert not on_circle
    elif root in (1, -1):
        assert root == (1 if any(abs(z - 1) < 1e-9 for z in on_circle) else -1)
        assert any(abs(z - root) < 1e-9 for z in on_circle)
    else:
        q, lo, hi = root
        y0 = min(2 * z.real for z in on_circle)
        assert lo - 1e-9 < y0 <= hi + 1e-9 and sturm_count(q, lo, hi) == 1
        for f in set(factors):
            assert vanishes_at(f, root) == any(
                abs(2 * z.real - y0) < 1e-9 and abs(abs(z) - 1) < 1e-6
                for z in np.roots(list(reversed(f.coeffs))))


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
