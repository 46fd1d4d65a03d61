"""Exact integer matrices and their spectral bookkeeping.

Characteristic and minimal polynomials, diagonalizability over C, and the
finite-order test for GL_n(Z) elements, all in exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import PreconditionError
from .polynomials import IntPolynomial, _fp_divmod, _fp_gcd, cyclotomic_order, is_squarefree


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix over Z, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise PreconditionError("matrix must be square with n >= 1")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.n)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise PreconditionError("dimension mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.n:
            raise PreconditionError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def det(self) -> int:
        """Bareiss fraction-free elimination; exact for any size."""
        n = self.n
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def inverse(self) -> "IntMatrix":
        """Exact inverse; defined (over Z) only for |det| = 1."""
        d = self.det()
        if abs(d) != 1:
            raise PreconditionError("inverse over Z needs |det| = 1")
        n = self.n
        aug = [
            [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            piv = next(i for i in range(col, n) if aug[i][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        return IntMatrix(tuple(tuple(int(x) for x in row[n:]) for row in aug))

    def mat_pow(self, k: int) -> "IntMatrix":
        if k < 0:
            return self.inverse().mat_pow(-k)
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result


def char_poly(a: IntMatrix) -> IntPolynomial:
    """det(xI - A), monic of degree n, via the Faddeev-LeVerrier recurrence."""
    n = a.n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() // k
        assert (-am.trace()) % k == 0
        coeffs[n - k] = c
        if k < n:
            m = IntMatrix(
                tuple(
                    tuple(am.rows[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n)
                )
            )
    return IntPolynomial(tuple(coeffs))


def _annihilator_of_vector(a: IntMatrix, e: tuple[int, ...]) -> list[Fraction]:
    """Monic minimal polynomial of the Krylov sequence e, Ae, A^2 e, ..."""
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot index, reduced vector)
    combos: list[list[Fraction]] = []  # expression of each reduced vector in Krylov terms
    power = 0
    cur = e
    while True:
        v = [Fraction(x) for x in cur]
        combo = [Fraction(0)] * (power + 1)
        combo[power] = Fraction(1)
        for (piv, bv), bc in zip(basis, combos):
            f = v[piv]
            if f != 0:
                v = [x - f * y for x, y in zip(v, bv)]
                combo = [
                    (combo[i] if i < len(combo) else Fraction(0))
                    - f * (bc[i] if i < len(bc) else Fraction(0))
                    for i in range(max(len(combo), len(bc)))
                ]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            # sum combo[i] * A^i e = 0 and combo is monic in degree `power`
            return combo[: power + 1]
        scale = v[piv]
        basis.append((piv, [x / scale for x in v]))
        combos.append([c / scale for c in combo])
        cur = a.apply(cur)
        power += 1


def minimal_poly(a: IntMatrix) -> IntPolynomial:
    """Monic polynomial of least degree with p(A) = 0, exact."""
    n = a.n
    acc: list[Fraction] = [Fraction(1)]
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        ann = _annihilator_of_vector(a, e)
        g = _fp_gcd(list(acc), list(ann))
        prod_len = len(acc) + len(ann) - 1
        prod = [Fraction(0)] * prod_len
        for p, x in enumerate(acc):
            for q, y in enumerate(ann):
                prod[p + q] += x * y
        acc, rem = _fp_divmod(prod, g)
        assert not rem
        if len(acc) - 1 == n:
            break
    lead = acc[-1]
    acc = [c / lead for c in acc]
    poly = IntPolynomial.from_fractions(acc)
    assert poly.leading == 1, "minimal polynomial of an integer matrix is monic over Z"
    return poly


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


def finite_order(a: IntMatrix) -> Optional[int]:
    """Least k >= 1 with A^k = I, or None if A has infinite order.

    A^k = I iff the minimal polynomial divides x^k - 1, so the order is the
    cyclotomic order of the minimal polynomial (Kronecker: no matrix powers).
    """
    if abs(a.det()) != 1:
        raise PreconditionError("finite order is asked of GL_n(Z) matrices only")
    return cyclotomic_order(minimal_poly(a))
