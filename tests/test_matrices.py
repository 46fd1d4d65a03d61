import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lengrp.errors import PreconditionError
from lengrp.matrices import (
    IntMatrix,
    char_poly,
    finite_order,
    is_diagonalizable,
    minimal_poly,
    torsion_order_candidates,
)
from lengrp.polynomials import IntPolynomial

CONNER = IntMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 2]])
HYPERBOLIC = IntMatrix.from_rows([[2, 1], [1, 1]])
ROTATION = IntMatrix.from_rows([[0, -1], [1, 0]])
JORDAN = IntMatrix.from_rows([[1, 1], [0, 1]])


def random_glz(rng, n=2, steps=6):
    """A random GL_n(Z) element as a product of elementary matrices."""
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = rng.choice([-2, -1, 1, 2])
        m = m @ IntMatrix.from_rows(e)
    return m


def test_construction_validation():
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([[1, 2]])
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([])


def test_matmul_and_apply():
    assert HYPERBOLIC @ IntMatrix.identity(2) == HYPERBOLIC
    assert HYPERBOLIC.apply((1, 0)) == (2, 1)
    assert (HYPERBOLIC @ HYPERBOLIC).rows == ((5, 3), (3, 2))
    assert HYPERBOLIC.transpose() == HYPERBOLIC
    assert CONNER.trace() == 2


def test_det():
    assert IntMatrix.identity(3).det() == 1
    assert HYPERBOLIC.det() == 1
    assert CONNER.det() == 1
    assert ROTATION.det() == 1
    assert IntMatrix.from_rows([[2, 0], [0, 1]]).det() == 2
    assert IntMatrix.from_rows([[1, 1], [1, 1]]).det() == 0
    rng = random.Random(2)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert IntMatrix.from_rows(rows).det() == int(sympy.Matrix(rows).det())


def test_inverse_and_powers():
    inv = CONNER.inverse()
    assert CONNER @ inv == IntMatrix.identity(4)
    assert CONNER.mat_pow(0) == IntMatrix.identity(4)
    assert CONNER.mat_pow(3) == CONNER @ CONNER @ CONNER
    assert CONNER.mat_pow(-2) == inv @ inv
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse()


def test_char_poly_goldens():
    assert char_poly(CONNER) == IntPolynomial((1, -2, 1, -2, 1))
    assert char_poly(HYPERBOLIC) == IntPolynomial((1, -3, 1))
    assert char_poly(ROTATION) == IntPolynomial((1, 0, 1))
    assert char_poly(IntMatrix.identity(2)) == IntPolynomial((1, -2, 1))


def test_char_poly_companion_and_random():
    # the companion matrix of a monic polynomial has it as characteristic
    p = (3, -1, 4, 1)  # x^3 + 4x^2 - x + 3
    comp = IntMatrix.from_rows([[0, 0, -3], [1, 0, 1], [0, 1, -4]])
    assert char_poly(comp) == IntPolynomial(p)
    rng = random.Random(9)
    x = sympy.Symbol("x")
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        got = char_poly(IntMatrix.from_rows(rows))
        want = sympy.Poly(sympy.Matrix(rows).charpoly(x), x).all_coeffs()
        assert list(reversed(got.coeffs)) == [int(c) for c in want]


def test_minimal_poly():
    assert minimal_poly(IntMatrix.identity(3)) == IntPolynomial((-1, 1))
    assert minimal_poly(JORDAN) == IntPolynomial((1, -2, 1))  # (x-1)^2
    two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert minimal_poly(two_i) == IntPolynomial((-2, 1))
    # companion matrices: minimal = characteristic
    assert minimal_poly(CONNER) == char_poly(CONNER)
    assert minimal_poly(HYPERBOLIC) == char_poly(HYPERBOLIC)


def test_minimal_poly_annihilates():
    rng = random.Random(4)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        a = IntMatrix.from_rows(rows)
        m = minimal_poly(a)
        acc = IntMatrix.from_rows([[0] * 3] * 3)
        power = IntMatrix.identity(3)
        for c in m.coeffs:
            acc = IntMatrix.from_rows(
                [[acc.rows[i][j] + c * power.rows[i][j] for j in range(3)] for i in range(3)]
            )
            power = power @ a
        assert acc == IntMatrix.from_rows([[0] * 3] * 3)


def test_is_diagonalizable():
    assert is_diagonalizable(IntMatrix.identity(2))
    assert is_diagonalizable(ROTATION)
    assert is_diagonalizable(HYPERBOLIC)
    assert is_diagonalizable(CONNER)
    assert not is_diagonalizable(JORDAN)


def test_torsion_order_candidates():
    assert torsion_order_candidates(1) == [1, 2]
    assert torsion_order_candidates(2) == [1, 2, 3, 4, 6]
    four = torsion_order_candidates(4)
    assert {5, 8, 10, 12} <= set(four)
    assert 7 not in four
    assert 16 not in four


def test_finite_order_goldens():
    assert finite_order(IntMatrix.identity(2)) == 1
    assert finite_order(IntMatrix.from_rows([[-1, 0], [0, -1]])) == 2
    assert finite_order(ROTATION) == 4
    # order 6 exists in GL_2(Z) even though phi(2) + phi(3) > 2
    assert finite_order(IntMatrix.from_rows([[0, -1], [1, 1]])) == 6
    assert finite_order(IntMatrix.from_rows([[0, -1], [1, -1]])) == 3
    assert finite_order(JORDAN) is None
    assert finite_order(HYPERBOLIC) is None
    assert finite_order(CONNER) is None
    with pytest.raises(PreconditionError):
        finite_order(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_finite_order_conjugation_invariant():
    rng = random.Random(7)
    for base, order in [(ROTATION, 4), (IntMatrix.from_rows([[0, -1], [1, 1]]), 6)]:
        for _ in range(10):
            u = random_glz(rng)
            conj = u @ base @ u.inverse()
            assert finite_order(conj) == order


# -- property tests against brute force ------------------------------------

PROPERTY_SETTINGS = settings(max_examples=120, derandomize=True, database=None,
                             deadline=None)
X = sympy.Symbol("x")


def brute_force_order(a):
    """Least k up to the largest possible torsion order with A^k = I."""
    p = a
    for k in range(1, max(torsion_order_candidates(a.n)) + 1):
        if p.is_identity:
            return k
        p = p @ a
    return None


def radical_annihilates(a):
    """Diagonalizable over C iff the product of the distinct irreducible
    factors of the characteristic polynomial vanishes at A."""
    cp = sympy.Poly(list(reversed(char_poly(a).coeffs)), X)
    radical = sympy.Poly(sympy.sqf_part(cp), X)
    acc = IntMatrix.from_rows([[0] * a.n] * a.n)
    for c in radical.all_coeffs():  # Horner, leading coefficient first
        acc = IntMatrix.from_rows(
            [[x + (int(c) if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate((acc @ a).rows)])
    return all(x == 0 for row in acc.rows for x in row)


def companion(coeffs):
    """Companion matrix of the monic polynomial with these coefficients
    (constant term first, leading 1 omitted)."""
    n = len(coeffs)
    return [[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i] for j in range(n)]
            for i in range(n)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def elementary(n, kind, i, j, c):
    """A transvection E_ij(c), a row swap or a sign flip of row i."""
    e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    if kind == "add":
        e[i][j] = c
    elif kind == "swap":
        e[i], e[j] = e[j], e[i]
    else:
        e[i][i] = -1
    return IntMatrix.from_rows(e)


@st.composite
def elementary_products(draw, n, max_steps):
    m = IntMatrix.identity(n)
    if n < 2:
        return m
    for _ in range(draw(st.integers(0, max_steps))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["add", "swap", "sign"]))
        m = m @ elementary(n, kind, i, j, draw(st.sampled_from([-2, -1, 1, 2])))
    return m


# companion blocks of Phi_k for every k with phi(k) <= 8, from sympy;
# k = 1 and k = 2 are the +-1 blocks
CYCLOTOMIC_BLOCKS = [
    companion([int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(k, X), X).all_coeffs())][:-1])
    for k in range(1, 31) if sum(1 for t in range(1, k + 1) if gcd(t, k) == 1) <= 8
]


@st.composite
def cyclotomic_block_twists(draw):
    """P B P^-1 with B block-diagonal in cyclotomic companions, n <= 8."""
    blocks = []
    for block in draw(st.lists(st.sampled_from(CYCLOTOMIC_BLOCKS), min_size=1, max_size=8)):
        if sum(map(len, blocks)) + len(block) <= 8:
            blocks.append(block)
    b = IntMatrix.from_rows(block_diag(blocks))
    p = draw(elementary_products(b.n, 4))
    return p @ b @ p.inverse()


@PROPERTY_SETTINGS
@given(cyclotomic_block_twists())
def test_finite_order_matches_brute_force_on_cyclotomic_blocks(a):
    assert finite_order(a) == brute_force_order(a)
    assert finite_order(a) is not None
    assert is_diagonalizable(a) == radical_annihilates(a)


@PROPERTY_SETTINGS
@given(st.integers(2, 5).flatmap(lambda n: elementary_products(n, 8)))
def test_finite_order_matches_brute_force_on_elementary_products(a):
    assert finite_order(a) == brute_force_order(a)
    assert is_diagonalizable(a) == radical_annihilates(a)
