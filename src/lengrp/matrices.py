"""Exact integer matrices and their spectral bookkeeping.

The minimal polynomial and the finite-order test for GL_n(Z) elements,
both in exact arithmetic.  ``polynomials`` is imported by those two
functions, not with the module, so matrix products alone never load it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import PreconditionError, _Frozen, _int_tuple

if TYPE_CHECKING:
    from .polynomials import IntPolynomial


class IntMatrix(_Frozen):
    """Square matrix over Z, stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(map(_int_tuple, rows))
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


def _annihilator_of_vector(a: IntMatrix, e: tuple[int, ...]) -> list[Fraction]:
    """Monic minimal polynomial of the Krylov sequence e, Ae, A^2 e, ..."""
    n = a.n
    # echelon rows: a reduced vector, then its coefficients on e, Ae, ..., A^n e
    basis: list[tuple[int, list[Fraction]]] = []
    cur = e
    for power in range(n + 1):
        row = [Fraction(x) for x in cur] + [Fraction(int(i == power)) for i in range(n + 1)]
        for piv, b in basis:
            if row[piv]:
                f = row[piv]
                row = [x - f * y if y else x for x, y in zip(row, b)]
        piv = next((i for i in range(n) if row[i]), None)
        if piv is None:
            # sum row[n + i] * A^i e = 0, monic in degree `power`
            return row[n:n + power + 1]
        basis.append((piv, [x / row[piv] for x in row]))
        cur = a.apply(cur)
    raise AssertionError("n + 1 vectors in Q^n are dependent")


def minimal_poly(a: IntMatrix) -> IntPolynomial:
    """Monic polynomial of least degree with p(A) = 0, exact: the lcm of
    the annihilators of the unit vectors."""
    from .polynomials import IntPolynomial, _fp_divmod, _fp_gcd

    n = a.n
    acc: list[Fraction] = [Fraction(1)]
    for i in range(n):
        ann = _annihilator_of_vector(a, tuple(1 if j == i else 0 for j in range(n)))
        extra, _ = _fp_divmod(ann, _fp_gcd(acc, ann))  # lcm(acc, ann) = acc * extra
        prod = [Fraction(0)] * (len(acc) + len(extra) - 1)
        for p, x in enumerate(acc):
            for q, y in enumerate(extra):
                prod[p + q] += x * y
        acc = prod
        if len(acc) - 1 == n:
            break
    poly = IntPolynomial.from_fractions(acc)
    assert poly.leading == 1, "minimal polynomial of an integer matrix is monic over Z"
    return poly


def finite_order(a: IntMatrix) -> Optional[int]:
    """Least k >= 1 with A^k = I, or None if A has infinite order.

    A^k = I iff the minimal polynomial divides x^k - 1, so the order is the
    cyclotomic order of the minimal polynomial (Kronecker: no matrix powers).
    """
    from .polynomials import cyclotomic_order

    if abs(a.det()) != 1:
        raise PreconditionError("finite order is asked of GL_n(Z) matrices only")
    return cyclotomic_order(minimal_poly(a))
