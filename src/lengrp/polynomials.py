"""Exact univariate integer polynomials.

Carries the polynomial side of the spectral machinery: Sturm-sequence real
root counting, the palindromic factor that holds all unit-circle roots, the
x + 1/x change of variable, cyclotomic factorization, and irreducibility
over Q (Zassenhaus, in exact integer arithmetic).
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import PreconditionError, _as_rational, _Frozen, _int_tuple

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = Union[int, Fraction]


def _content(coeffs: Sequence[int]) -> int:
    c = 0
    for a in coeffs:
        c = gcd(c, abs(a))
    return c


class IntPolynomial(_Frozen):
    """Polynomial over Z, coefficients constant term first.

    Canonical form: trailing zeros trimmed, integer content divided out,
    leading coefficient positive.  The zero polynomial is stored as ``(0,)``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        cs = _trim(list(_int_tuple(coeffs))) or [0]
        if any(cs):
            cont = _content(cs) if cs[-1] > 0 else -_content(cs)
            cs = [c // cont for c in cs]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    @property
    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __call__(self, x: Scalar) -> Scalar:
        return _eval(self.coeffs, x)

    def derivative(self) -> "IntPolynomial":
        if self.degree < 1:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def reversed_(self) -> "IntPolynomial":
        """Coefficient reversal x^deg * p(1/x)."""
        return IntPolynomial(tuple(reversed(self.coeffs)))


# -- coefficient lists over Z, constant term first -----------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _eval(a: Sequence[Scalar], x: Scalar) -> Scalar:
    acc: Scalar = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _div(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
    """The quotient a / b in Z[x], or None when b does not divide a there;
    a and b trimmed, b nonzero."""
    rest, lead, db = list(a), b[-1], len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = rest[shift + db]
        if c:
            coef = q[shift] = c // lead
            if coef * lead != c:
                return None
            for i, bc in enumerate(b):
                rest[shift + i] -= coef * bc
    return None if any(rest[:db]) else q


def _sign(a: Sequence[int], num: int, den: int) -> int:
    """The sign of a(num/den), den > 0, read in integers off
    den^deg(a) * a(num/den) (homogeneous Horner)."""
    acc, scale = 0, 1
    for c in reversed(a):
        acc, scale = acc * num + c * scale, scale * den
    return (acc > 0) - (acc < 0)


def _rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of a by b over Q, times the positive rational that
    makes it a primitive list in Z[x] ([] for zero); a and b trimmed, b
    nonzero."""
    from fractions import Fraction

    r, lead, db = [Fraction(c) for c in a], b[-1], len(b) - 1
    for shift in range(len(r) - 1 - db, -1, -1):
        coef = r[shift + db] / lead
        if coef:
            for i, bc in enumerate(b):
                r[shift + i] -= coef * bc
    den = lcm(*(c.denominator for c in r[:db]))
    r = _trim([int(c * den) for c in r[:db]])
    cont = _content(r)
    return [c // cont for c in r]


def _gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """gcd(p, q) over Q, primitive with a positive leading coefficient
    (Euclid on _rem; zero for two zeros)."""
    a, b = _trim(list(p.coeffs)), _trim(list(q.coeffs))
    while b:
        a, b = b, _rem(a, b)
    return IntPolynomial(tuple(a))


# -- squarefree part, Sturm counting -------------------------------------


def is_squarefree(p: IntPolynomial) -> bool:
    """True iff p has no repeated root over C, i.e. gcd(p, p') is constant."""
    return _gcd(p, p.derivative()).degree == 0


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'), primitive with positive leading coefficient.

    The gcd is primitive; by Gauss's lemma it divides p in Z[x].
    """
    if p.is_zero:
        raise PreconditionError("squarefree part of the zero polynomial")
    return IntPolynomial(tuple(_div(p.coeffs, _gcd(p, p.derivative()).coeffs)))


def _sturm_variations(q: IntPolynomial) -> Callable[[int, int], int]:
    """(num, den) -> number of sign changes of the Sturm sequence of q, of
    degree >= 1, at num/den with den > 0.  The chain is in Z[x]: each entry
    is a positive multiple of the textbook -rem(p_(i-1), p_i) over Q, so
    the signs are the same."""
    chain = [q.coeffs, q.derivative().coeffs]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(num: int, den: int) -> int:
        signs = [s for s in (_sign(p, num, den) for p in chain) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations


def sturm_count(q: IntPolynomial, a: Scalar, b: Scalar) -> int:
    """Number of distinct real roots of squarefree q in the interval (a, b].

    The endpoints are integers or Fractions (errors._as_rational), and
    neither may be a root; perturb the endpoints by an exact rational shift
    before calling if that happens.
    """
    a, b = _as_rational(a), _as_rational(b)
    if a >= b:
        raise PreconditionError("need a < b")
    if q.degree < 1:
        return 0
    if q(a) == 0 or q(b) == 0:
        raise PreconditionError("endpoint is a root; perturb it first")
    variations = _sturm_variations(q)
    return variations(a.numerator, a.denominator) - variations(b.numerator, b.denominator)


# -- unit-circle root detection ------------------------------------------


def self_reciprocal_part(p: IntPolynomial) -> IntPolynomial:
    """gcd of p with its coefficient reversal, over Q, made primitive.

    Contains every root of p lying on the unit circle: such roots come in
    pairs lambda, 1/lambda = conj(lambda), so they divide the reversal too.
    """
    if p.constant_term == 0:
        raise PreconditionError("zero constant term; factor out x first")
    return _gcd(p, p.reversed_())


def half_trace_transform(r: IntPolynomial) -> IntPolynomial:
    """For palindromic r of degree 2m, the q with r(x) = x^m * q(x + 1/x).

    Uses the recurrence b_0 = 2, b_1 = y, b_{k+1} = y*b_k - b_{k-1} for the
    polynomials with b_k(x + 1/x) = x^k + x^(-k).
    """
    deg = r.degree
    if deg < 2 or deg % 2 or not r.is_palindromic:
        raise PreconditionError("need a palindromic polynomial of even degree >= 2")
    m, c = deg // 2, r.coeffs
    q = [c[m]] + [0] * m
    b_prev, b_cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, x in enumerate(b_cur):
            q[i] += c[m + k] * x
        b_prev, b_cur = b_cur, [x - (b_prev[i] if i < len(b_prev) else 0)
                                for i, x in enumerate([0] + b_cur)]
    return IntPolynomial(tuple(q))


UnitRoot = Union[int, tuple[IntPolynomial, int, int, int]]


def unit_circle_root(p: IntPolynomial) -> Optional[UnitRoot]:
    """Exact location of a root lam of p with |lam| = 1, or None if none.

    p needs a unit constant term, as minimal polynomials in GL_n(Z) have.
    lam is 1, else -1, else (y0 + i*sqrt(4 - y0^2))/2 for the least root y0
    in (-2, 2) of the squarefree half-trace polynomial q of the palindromic
    factor: then the result is (q, u, v, k), y0 the only root of q in the
    dyadic (u/2^k, v/2^k], found by Sturm bisection in integers.
    """
    if p.degree < 1:
        raise PreconditionError("need a nonconstant polynomial")
    if abs(p.constant_term) != 1:
        raise PreconditionError("constant term must be a unit")
    for t in (1, -1):
        if p(t) == 0:
            return t
    r = self_reciprocal_part(p)
    if r.degree == 0:
        return None
    q = squarefree_part(half_trace_transform(r))
    variations = _sturm_variations(q)
    # roots at y = +-2 would mean x = +-1, excluded above
    u, v, k = -2, 2, 0
    count = variations(u, 1) - variations(v, 1)
    while count > 1:
        u, v, mid, k = 2 * u, 2 * v, u + v, k + 1
        while not _sign(q.coeffs, mid, 1 << k):  # a root: move mid halfway to v
            u, v, mid, k = 2 * u, 2 * v, mid + v, k + 1
        left = variations(u, 1 << k) - variations(mid, 1 << k)
        u, v, count = (u, mid, left) if left else (mid, v, count)
    return (q, u, v, k) if count else None


def _dyadic_brackets(root: tuple[IntPolynomial, int, int, int]) -> Iterator[tuple[int, int, int]]:
    """Ever narrower brackets (u, v, k) of y0, from root = (q, u, v, k) of
    unit_circle_root: y0 in [u/2^k, v/2^k], and v - u stays fixed while k
    grows by one per bracket.

    q is monic, so a rational y0 is -1, 0 or 1, taken exactly: u = v.
    Otherwise y0 is the only root of q in (u/2^k, v/2^k], across which q
    changes sign; bisection keeps the half that holds the sign change.
    """
    q, u, v, k = root
    q = q.coeffs
    for t in (-1, 0, 1):
        if u < t << k <= v and not _sign(q, t, 1):
            u = v = t << k
    sign_v = _sign(q, v, 1 << k)
    while True:
        yield u, v, k
        u, v, k = 2 * u, 2 * v, k + 1
        mid = (u + v) // 2
        u, v = (u, mid) if _sign(q, mid, 1 << k) == sign_v else (mid, v)


def vanishes_at(p: IntPolynomial, root: UnitRoot) -> bool:
    """p(lam) = 0, exactly, for lam located by root = unit_circle_root(m) and
    p whose unit-circle roots are roots of m (a divisor of m, say): the
    integer Sturm chain of p's squarefree half-trace counts its roots in
    the bracket (u/2^k, v/2^k] of root, whose ends are roots of neither."""
    if isinstance(root, int):
        return p(root) == 0
    _, u, v, k = root
    r = self_reciprocal_part(p)
    if r.degree == 0:
        return False
    variations = _sturm_variations(squarefree_part(half_trace_transform(r)))
    return variations(u, 1 << k) > variations(v, 1 << k)


def has_unit_circle_eigenvalue(p: IntPolynomial) -> bool:
    """True iff p has a complex root of modulus exactly 1 (unit_circle_root)."""
    return unit_circle_root(p) is not None


# -- cyclotomic factors --------------------------------------------------


def _totient(k: int) -> int:
    phi, rest, p = k, k, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


@lru_cache(maxsize=None)
def _cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of the k-th cyclotomic polynomial, constant term first:
    x^k - 1 divided by every Phi_d with d a proper divisor of k."""
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = _div(num, _cyclotomic_poly(d))
    return tuple(num)


def cyclotomic_order(m: IntPolynomial) -> Optional[int]:
    """Least N with m | x^N - 1, or None if there is none.

    m divides x^N - 1 iff m is a product of distinct cyclotomic polynomials
    Phi_k with k | N, so N is the lcm of those k.  Each Phi_k dividing m has
    phi(k) <= deg m, and phi(k) >= sqrt(k/2) bounds the k to try by
    2 (deg m)^2.  Exact integer division throughout.
    """
    if m.degree < 0:
        raise PreconditionError("cyclotomic order of the zero polynomial")
    rest, order = list(m.coeffs), 1
    for k in range(1, 2 * m.degree ** 2 + 1):
        if len(rest) == 1:
            break
        if _totient(k) >= len(rest):
            continue
        phi = _cyclotomic_poly(k)
        q = _div(rest, phi)
        if q is None:
            continue
        if _div(q, phi) is not None:
            return None  # repeated factor
        rest, order = q, lcm(order, k)
    return order if rest == [1] else None


# -- irreducibility over Q -----------------------------------------------


# Polynomials over Z/m as int lists, constant term first, trimmed (zero is
# []); m is a prime q or a prime power q^k, and every divisor is monic or has
# a leading coefficient prime to q.


def _mp_mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _mp_sub(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m
                  for i in range(n)])


def _mp_divmod(a: Sequence[int], b: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    a = list(a)
    inv, db = pow(b[-1], -1, m), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - len(b), -1, -1):
        coef = a[shift + db] * inv % m
        if coef:
            q[shift] = coef
            for i, bc in enumerate(b):  # reduced once, at the end
                a[shift + i] -= coef * bc
    return _trim(q), _trim([c % m for c in a[:db]])


def _mp_monic(a: Sequence[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _mp_gcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """Monic gcd over the field Z/q."""
    a, b = _trim([c % q for c in a]), _trim([c % q for c in b])
    while b:
        a, b = b, _mp_divmod(a, b, q)[1]
    return _mp_monic(a, q) if a else a


def _mp_bezout(a: Sequence[int], b: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 over Z/q, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = list(a), list(b), [1], [], [], [1]
    while r1:
        quo, rem = _mp_divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _mp_sub(s0, _mp_mul(quo, s1, q), q)
        t0, t1 = t1, _mp_sub(t0, _mp_mul(quo, t1, q), q)
    inv = pow(r0[0], -1, q)
    return [c * inv % q for c in s0], [c * inv % q for c in t0]


def _mp_powmod(a: Sequence[int], e: int, f: Sequence[int], q: int) -> list[int]:
    """a^e mod f over Z/q, deg f >= 1."""
    result, base = [1], _mp_divmod(a, f, q)[1]
    while e:
        if e & 1:
            result = _mp_divmod(_mp_mul(result, base, q), f, q)[1]
        e >>= 1
        if e:
            base = _mp_divmod(_mp_mul(base, base, q), f, q)[1]
    return result


def _distinct_degree(f: list[int], q: int) -> list[tuple[list[int], int]]:
    """Pairs (g, d): g the product of the irreducible factors of degree d of
    the monic squarefree f over Z/q, one pair per d that occurs."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _mp_powmod(h, q, f, q)  # x^(q^d) mod f
        g = _mp_gcd(f, _mp_sub(h, [0, 1], q), q)
        if len(g) > 1:
            out.append((g, d))
            f = _mp_divmod(f, g, q)[0]
            h = _mp_divmod(h, f, q)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, q: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of g, a product of distinct irreducibles of
    degree d over Z/q with q odd (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(q) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _mp_gcd(g, _mp_sub(_mp_powmod(a, (q ** d - 1) // 2, g, q), [1], q), q)
        if 1 < len(b) < len(g):
            return (_equal_degree(b, d, q, rng)
                    + _equal_degree(_mp_divmod(g, b, q)[0], d, q, rng))


def _hensel_lift(f: list[int], factors: list[list[int]], q: int, k: int) -> list[list[int]]:
    """Monic G_i over Z/q^k, G_i = factors[i] mod q and f = lc(f) * prod G_i
    mod q^k, for f = lc(f) * prod factors mod q with distinct monic factors.

    Splits the factors in two halves, lifts that split one power of q at a
    time, then recurses into each half."""
    if len(factors) == 1:
        return [_mp_monic(f, q ** k)]
    half = len(factors) // 2
    a, b = [1], [1]
    for g in factors[:half]:
        a = _mp_mul(a, g, q)
    for g in factors[half:]:
        b = _mp_mul(b, g, q)
    s, t = _mp_bezout(a, b, q)
    lead_inv = pow(f[-1], -1, q)
    big_a, big_b, mod = a, b, q
    for _ in range(k - 1):
        # f - lead * A * B vanishes mod q^j; its next q-adic digit, over lead
        prod = _mp_mul(_mp_mul(big_a, big_b, mod * q), [f[-1]], mod * q)
        err = _mp_sub(f, prod, mod * q)
        err = _trim([(c // mod) * lead_inv % q for c in err])
        d_a = _mp_divmod(_mp_mul(t, err, q), a, q)[1]
        d_b = _mp_divmod(_mp_sub(err, _mp_mul(d_a, b, q), q), a, q)[0]
        big_a = _trim([c + mod * (d_a[i] if i < len(d_a) else 0)
                       for i, c in enumerate(big_a)])
        big_b = _trim([c + mod * (d_b[i] if i < len(d_b) else 0)
                       for i, c in enumerate(big_b)])
        mod *= q
    return _hensel_lift(big_a, factors[:half], q, k) + _hensel_lift(big_b, factors[half:], q, k)


def _odd_primes() -> Iterable[int]:
    q = 3
    while True:
        if all(q % d for d in range(3, isqrt(q) + 1, 2)):
            yield q
        q += 2


# good primes whose factorization degrees are intersected before lifting
_DEGREE_PRIMES = 5


def is_irreducible(p: IntPolynomial) -> bool:
    """Irreducibility of p over Q (equivalently over Z, p being primitive).

    p is reducible if x divides it or p(1) or p(-1) is 0; of degree 2 or 3
    with end coefficients +-1 it is irreducible, +-1 being its only rational
    root candidates.  No divisors are searched.  Every other p goes to
    Zassenhaus, which finds linear factors too: the factor degrees modulo a
    few primes q (q not dividing lc(p), p squarefree mod q) bound those of
    a rational factor; if none is left strictly between 0 and deg p, p is
    irreducible.  Else the factors modulo the prime with the fewest are
    lifted to q^k beyond twice the Mignotte bound, and every product of at
    most half of them is tried as an exact divisor.
    """
    if p.degree < 1:
        raise PreconditionError("constant polynomial")
    if p.degree == 1:
        return True
    if p.constant_term == 0 or p(1) == 0 or p(-1) == 0:
        return False
    if p.degree <= 3 and abs(p.constant_term) == p.leading == 1:
        return True  # a factorization in degree 2 or 3 has a linear factor
    f, n = list(p.coeffs), p.degree
    allowed = (1 << (n + 1)) - 1  # bit d set: a factor of degree d is possible
    best, good, squarefree_checked = None, 0, False
    for q in _odd_primes():
        if f[-1] % q == 0:
            continue
        fq = _mp_monic([c % q for c in f], q)
        deriv = _trim([k * c % q for k, c in enumerate(fq)][1:])
        if len(_mp_gcd(fq, deriv, q)) > 1:
            # a repeated factor over Q repeats modulo every q: rule it out once
            if not good and not squarefree_checked:
                if not is_squarefree(p):
                    return False
                squarefree_checked = True
            continue
        blocks = _distinct_degree(fq, q)
        sums, count = 1, 0
        for g, d in blocks:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
            count += (len(g) - 1) // d
        allowed &= sums
        if allowed == 1 | 1 << n:
            return True
        if best is None or count < best[0]:
            best = (count, q, blocks)
        good += 1
        if good == _DEGREE_PRIMES:
            break
    _, q, blocks = best
    rng = random.Random(0)
    factors = [h for g, d in blocks for h in _equal_degree(g, d, q, rng)]
    bound = (isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * f[-1]
    k = 1
    while q ** k <= 2 * bound:
        k += 1
    mod = q ** k
    lifted = _hensel_lift(f, factors, q, k)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            if not allowed >> sum(len(g) - 1 for g in subset) & 1:
                continue
            g = [f[-1] % mod]
            for h in subset:
                g = _mp_mul(g, h, mod)
            g = [c - mod if 2 * c > mod else c for c in g]
            cont = _content(g)
            g = [c // cont for c in g]
            if g[0] and f[0] % g[0] == 0 and _div(f, g) is not None:
                return False
    return True
