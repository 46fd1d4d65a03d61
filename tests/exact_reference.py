"""Exact references that only the tests use.

The library reads every spectral verdict off the minimal polynomial; the
Faddeev-LeVerrier characteristic polynomial, diagonalizability, the
torsion orders of GL_n(Z), the lattice stable word length and the
eigenline's point values (lam, P) are the independent checks the tests
compare it with.  The Heisenberg symmetry representative is checked
against the whole orbit.
"""
from __future__ import annotations

import mpmath

from lengrp.lengths import LengthEvaluator, _Eigenline, _midpoint
from lengrp.matrices import IntMatrix, minimal_poly
from lengrp.polynomials import IntPolynomial, is_squarefree, unit_circle_root


def is_identity(a: IntMatrix) -> bool:
    return a == IntMatrix.identity(a.n)


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*a.rows)))


def trace(a: IntMatrix) -> int:
    return sum(a.rows[i][i] for i in range(a.n))


def char_poly(a: IntMatrix) -> IntPolynomial:
    """det(xI - A), monic of degree n, via the Faddeev-LeVerrier recurrence."""
    n = a.n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -trace(am) // k
        assert (-trace(am)) % k == 0
        coeffs[n - k] = c
        if k < n:
            m = IntMatrix(
                tuple(
                    tuple(am.rows[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n)
                )
            )
    return IntPolynomial(tuple(coeffs))


def is_diagonalizable(a: IntMatrix) -> bool:
    """Diagonalizable over C iff the minimal polynomial is squarefree."""
    return is_squarefree(minimal_poly(a))


def _euler_phi_prime_power(p: int, a: int) -> int:
    return p ** (a - 1) * (p - 1)


def torsion_order_candidates(n: int) -> list[int]:
    """All possible orders of finite-order elements of GL_n(Z), ascending.

    An order m is achievable iff the totient sum of its prime-power parts is
    at most n, where the single factor 2 comes for free when m = 2 mod 4
    (adjoin -I on the block realizing m/2).
    """
    primes = []
    cand = 2
    while cand <= n + 1:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    # per-prime feasible powers with their totient cost
    per_prime: list[list[tuple[int, int]]] = []
    for p in primes:
        powers = []
        a = 1
        while _euler_phi_prime_power(p, a) <= n:
            powers.append((p ** a, _euler_phi_prime_power(p, a)))
            a += 1
        if powers:
            per_prime.append(powers)

    orders = set()

    def rec(idx: int, m: int, cost: int):
        orders.add(m)
        for j in range(idx, len(per_prime)):
            for q, c in per_prime[j]:
                total = cost + c
                if q == 2 and m % 2 == 1:
                    total = cost  # m*2 = 2 mod 4: the -I trick is free
                if total <= n:
                    rec(j + 1, m * q, total)

    rec(0, 1, 0)
    return sorted(orders)


def lattice_swl_evaluator() -> LengthEvaluator:
    """The stable word length pushed to the abelianization Z^2."""
    return LengthEvaluator(
        name="swl-abelianized",
        domain="lattice",
        func=lambda v: abs(v[0]) + abs(v[1]),
        exact=True,
    )


def eigenline(a: IntMatrix, dps: int = 30) -> _Eigenline:
    """The eigenline of A at the eigenvalue unit_circle_root locates."""
    m = minimal_poly(a)
    return _Eigenline(a, m, unit_circle_root(m), dps)


def projector_enclosure(line: _Eigenline) -> list:
    """P = r(A)/r(lam) as mpmath.iv enclosures, from the eigenline's
    enclosures of r(A) and r(lam), at the eigenline's precision."""
    iv, saved = mpmath.iv, mpmath.iv.prec
    try:
        iv.prec = line.prec
        scale = 1 / iv.convert(line.r_lam)
        return [[scale * x for x in row] for row in line.rows]
    finally:
        iv.prec = saved


def unit_eigen_projector(a: IntMatrix, dps: int):
    """(lam, P): a modulus-one eigenvalue of A, at the midpoint of the
    eigenline's enclosure, and the seminorm's spectral projector."""
    line = eigenline(a, dps)
    with mpmath.workprec(line.prec):
        return mpmath.mpmathify(_midpoint(line.lam)), line.projector()


def symmetry_orbit(x: int, y: int, z: int) -> set[tuple[int, int, int]]:
    """d(x,y,z) = d(-x,y,-z) = d(x,-y,-z) = d(y,x,z): signed permutations
    of (x, y), with z times the product of the signs."""
    return {img for sx in (1, -1) for sy in (1, -1)
            for img in ((sx * x, sy * y, sx * sy * z), (sy * y, sx * x, sx * sy * z))}


def normalize_heis_coords(x: int, y: int, z: int) -> tuple[int, int, int]:
    """The orbit element with z >= 0, x >= 0, x >= y >= -x; when z = 0 both
    (x, y, 0) and (x, -y, 0) qualify, and the one with y >= 0 is taken."""
    candidates = [
        (cx, cy, cz)
        for cx, cy, cz in symmetry_orbit(x, y, z)
        if cz >= 0 and cx >= 0 and cx >= cy >= -cx
    ]
    if not candidates:
        raise AssertionError("symmetry orbit always contains a normalized triple")
    return max(candidates, key=lambda c: (c[1], c))
