"""Length functions as first-class evaluators.

Closed-form Heisenberg word lengths with a shared-ball fallback, stable
word length, subadditive-limit estimation, rational extension of lattice
length functions, the eigenline projection seminorm, a quadratically-growing
length function, and a property-based checker for the three length-function
axioms (homogeneity along powers, conjugation invariance, subadditivity on
commuting pairs).  ``mpmath``, ``matrices`` and ``polynomials`` are
imported by the eigenline helpers that use them, not with the module, so
word lengths never load them and "none" dossiers never load mpmath;
``fractions`` is imported by the functions that make ratios.
"""
from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, isfinite, isqrt
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from .errors import (
    DEFAULT_STATE_BUDGET,
    LengrpError,
    NumericalDegeneracyError,
    OracleExhausted,
    PreconditionError,
    ResourceExhausted,
    _as_count,
    _as_rational,
    _Record,
)
from .groups import (
    HEIS_A,
    HEIS_B,
    HeisElem,
    HeisenbergGroup,
    SdpElem,
    SharedBall,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .matrices import IntMatrix
    from .polynomials import IntPolynomial, UnitRoot

    Value = Union[int, Fraction, float]  # a type for annotations only

HEIS_GENERATORS = (HEIS_A, HEIS_A.inverse(), HEIS_B, HEIS_B.inverse())


class CoverageGap(LengrpError):
    """The closed form does not cover the requested element."""


# -- closed forms --------------------------------------------------------


def ceil_two_sqrt(n: int) -> int:
    """Smallest integer m with m >= 2*sqrt(n), exactly (m*m >= 4n)."""
    if n < 0:
        raise PreconditionError("negative argument")
    m = isqrt(4 * n)
    if m * m < 4 * n:
        m += 1
    return m


def normalize_heis_coords(x: int, y: int, z: int) -> tuple[int, int, int]:
    """A symmetry-equivalent representative with z >= 0, x >= 0, x >= y >= -x.

    d(x,y,z) = d(-x,y,-z) = d(x,-y,-z) = d(y,x,z): the orbit is the signed
    permutations of (x, y), with z times the product of the signs.  So the
    representative's x is the larger of |x|, |y|, and its y is the other
    coordinate, with the sign that makes z >= 0: unchanged if the larger
    coordinate and z have the same sign (ties |x| = |y| give the same y
    either way).  When z = 0 both signs normalize; y >= 0 is preferred,
    where the closed-form cases live.
    """
    big, other = (x, y) if abs(x) >= abs(y) else (y, x)
    if z == 0:
        return abs(big), abs(other), 0
    return abs(big), other if (big > 0) == (z > 0) else -other, abs(z)


def blachere_word_length(x: int, y: int, z: int) -> Optional[int]:
    """Exact word length from the two closed-form cases, or None.

    After symmetry normalization: if y >= 0 and x^2 <= z the length is
    2*ceil(2*sqrt(z)) - x - y; if y >= 0, x^2 >= z and x*y > z it is x + y.
    Boundary configurations outside the two quoted cases return None rather
    than extrapolating.
    """
    nx, ny, nz = normalize_heis_coords(x, y, z)
    if ny >= 0 and nx * nx <= nz:
        return 2 * ceil_two_sqrt(nz) - nx - ny
    if ny >= 0 and nx * nx >= nz and nx * ny > nz:
        return nx + ny
    return None


def central_power_word_length(n: int) -> int:
    """Word length of the n-th central power: 2*ceil(2*sqrt(n)); 0 for n = 0."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n == 0:
        return 0
    return 2 * ceil_two_sqrt(n)


def swl_heisenberg(g: HeisElem) -> int:
    """Stable word length |x| + |y|; independent of the central coordinate."""
    return abs(g.x) + abs(g.y)


class WordLengthResult(NamedTuple):
    value: int
    path: str  # "formula" or "oracle"


@lru_cache(maxsize=1024)
def _result(value: int, path: str) -> WordLengthResult:
    """Results are immutable, so callers share one per (value, path); the
    cache is bounded because formula values are not."""
    return WordLengthResult(value, path)


class HeisWordOracle:
    """Exact Heisenberg word lengths: closed form first, else one SharedBall.

    The ball is grown lazily, only as far as the fallback queries need
    (never beyond radius ceil(max_radius/2)), and kept for the oracle's
    life, so a query whose element is already in it is one look-up.  An
    element with |x| + |y| > max_radius raises OracleExhausted before the
    ball grows; a query that needs a ball of more than ``budget`` states
    raises ResourceExhausted.
    """

    def __init__(self, *, max_radius: int = 40, budget: int = DEFAULT_STATE_BUDGET):
        self._ball = SharedBall(HeisenbergGroup(), max_radius, budget)
        self.max_radius = self._ball.max_radius

    def word_length(self, g: HeisElem) -> WordLengthResult:
        closed = blachere_word_length(g.x, g.y, g.z)
        if closed is not None:
            return _result(closed, "formula")
        value = self._ball.word_length(g)
        if value is None:
            raise OracleExhausted(
                f"word length of {g} exceeds the oracle radius {self.max_radius}"
            )
        return _result(value, "oracle")


# -- evaluators ----------------------------------------------------------


class LengthEvaluator(_Record):
    """A deterministic nonnegative evaluator on a fixed domain.

    ``domain`` is "heisenberg" (HeisElem arguments), "lattice" (integer
    vectors) or "sdp" (SdpElem arguments; check_axioms and extend_rational
    reject it).  ``stable_limit``, when set, returns the known exact value
    of the subadditive limit along powers.
    """

    __slots__ = ("name", "domain", "func", "exact", "stable_limit")
    _defaults = {"stable_limit": None}

    def evaluate(self, g) -> Value:
        return self.func(g)


def swl_evaluator() -> LengthEvaluator:
    return LengthEvaluator(
        name="swl",
        domain="heisenberg",
        func=swl_heisenberg,
        exact=True,
        stable_limit=swl_heisenberg,
    )


def quadratic_length(g: HeisElem) -> int:
    """Length function positive only on the powers of (1, n, 0) classes.

    Keys on the abelianized pair (x, y), a conjugation invariant: the value
    is |k| * n^2 when (x, y) = (k, k*n) with n >= 1, else 0.  Grows
    quadratically in n while every stable norm grows linearly.
    """
    if g.x == 0 or g.y % g.x != 0:
        return 0
    n = g.y // g.x
    if n < 1:
        return 0
    return abs(g.x) * n * n


def quadratic_evaluator() -> LengthEvaluator:
    return LengthEvaluator(
        name="quadratic",
        domain="heisenberg",
        func=quadratic_length,
        exact=True,
        stable_limit=quadratic_length,
    )


def zero_evaluator() -> LengthEvaluator:
    return LengthEvaluator(
        name="zero", domain="heisenberg", func=lambda g: 0, exact=True,
        stable_limit=lambda g: 0,
    )


def word_length_evaluator(closed_form_only: bool = False,
                          budget: int = DEFAULT_STATE_BUDGET) -> LengthEvaluator:
    """Raw word metric d_S.  Not a length function: homogeneity fails.

    With ``closed_form_only`` the evaluator raises CoverageGap instead of
    consulting the oracle's ball, which holds at most ``budget`` states.
    """
    oracle = HeisWordOracle(budget=budget)

    def func(g: HeisElem) -> int:
        if closed_form_only:
            closed = blachere_word_length(g.x, g.y, g.z)
            if closed is None:
                raise CoverageGap(f"closed form does not cover {g}")
            return closed
        return oracle.word_length(g).value

    return LengthEvaluator(
        name="wordlen" + ("-closed" if closed_form_only else ""),
        domain="heisenberg",
        func=func,
        exact=True,
        stable_limit=swl_heisenberg,
    )


# -- stable length estimation --------------------------------------------


class StableLengthEstimate(_Record):
    """Samples of L(g^k)/k with the Fekete running infimum.

    Each sample is a tuple (k, L(g^k), ratio).  The infimum over sampled
    k upper-bounds the true stable length; the declared limit is filled in
    only when a closed form is known and every requested power was
    sampled.  ``skipped`` and ``subadditivity_violations`` default to new
    empty lists.
    """

    __slots__ = ("element", "samples", "running_infimum", "skipped", "partial",
                 "declared_limit", "subadditivity_violations")
    _defaults = {"skipped": list, "partial": False, "declared_limit": None,
                 "subadditivity_violations": list}

    @property
    def infimum(self) -> Optional[Value]:
        return self.running_infimum[-1] if self.running_infimum else None


def stable_length_estimate(length: LengthEvaluator, g, k_max: int) -> StableLengthEstimate:
    """Sample L(g^k)/k for k = 1..k_max and report the running infimum.

    Subadditivity along the sampled powers is checked, not assumed; any
    violating pair is recorded.  Powers the evaluator cannot answer are
    skipped (closed-form gaps) or flag the estimate partial (oracle limits).
    """
    from fractions import Fraction

    k_max = _as_count(k_max, "k_max", 1)
    samples: list[tuple[int, Value, Value]] = []
    skipped: list[int] = []
    partial = False
    values: dict[int, Value] = {}
    power = g
    for k in range(1, k_max + 1):
        if k > 1:
            power = power * g  # g^k = g^(k-1) g
        try:
            val = length.evaluate(power)
        except CoverageGap:
            skipped.append(k)
            continue
        except (OracleExhausted, ResourceExhausted):
            skipped.append(k)
            partial = True
            continue
        if isinstance(val, int):
            ratio: Value = Fraction(val, k)
        else:
            ratio = val / k
        values[k] = val
        samples.append((k, val, ratio))

    violations = []
    ks = sorted(values)
    for j in ks:
        for k in ks:
            if j <= k and (j + k) in values:
                lhs, rhs = values[j + k], values[j] + values[k]
                bad = lhs > rhs if length.exact else lhs > rhs + 1e-9
                if bad:
                    violations.append((j, k))

    running: list[Value] = []
    for _, _, ratio in samples:
        running.append(ratio if not running else min(running[-1], ratio))

    declared = None
    if length.stable_limit is not None and not skipped and not partial:
        declared = length.stable_limit(g)

    return StableLengthEstimate(
        element=g,
        samples=samples,
        running_infimum=running,
        skipped=skipped,
        partial=partial,
        declared_limit=declared,
        subadditivity_violations=violations,
    )


def extend_rational(length: LengthEvaluator, q: Sequence[Union[int, Fraction]]) -> Value:
    """Evaluate a lattice length function at a rational point.

    With d the least common multiple of the denominators, the value is
    L(d*q)/d; homogeneity over Q holds by construction.
    """
    from fractions import Fraction

    if length.domain != "lattice":
        raise PreconditionError("rational extension needs a lattice evaluator")
    fracs = list(map(_as_rational, q))
    d = 1
    for x in fracs:
        d = d * x.denominator // gcd(d, x.denominator)
    v = tuple(int(x * d) for x in fracs)
    val = length.evaluate(v)
    if isinstance(val, int):
        return Fraction(val, d)
    return val / d


# -- the sqrt bound for central powers -----------------------------------


def sqrt_bound_witness(length: LengthEvaluator, max_n: int) -> tuple[Fraction, Fraction, bool]:
    """Constants (K, C) with L(c^n) <= K*sqrt(n) + C, verified up to max_n.

    K = 4*max L(s), C = 2*max L(s) + 2 over the generators.  The check uses
    the subadditive expansion through a geodesic word for the central power:
    L(c^n) <= |c^n|_S * max L(s), compared against K*sqrt(n) + C by exact
    rational square comparison.
    """
    from fractions import Fraction

    max_gen = max(Fraction(length.evaluate(s)) for s in HEIS_GENERATORS)
    big_k = 4 * max_gen
    big_c = 2 * max_gen + 2
    verified = True
    for n in range(1, max_n + 1):
        upper = central_power_word_length(n) * max_gen
        if upper <= big_c:
            continue
        if (upper - big_c) ** 2 > big_k ** 2 * n:
            verified = False
            break
    return big_k, big_c, verified


# -- the eigenline of a unit-circle eigenvalue ---------------------------

_MARGIN_BITS = 16  # interval precision beyond dps digits and the guard bits


class _Eigenline:
    """A unit-circle eigenvalue lam of A and r(A), built once for both the
    word-length bound (_eigen_functional) and the seminorm.

    A has minimal polynomial m = (x - lam) r, and root = unit_circle_root(m)
    locates lam: it is lam = +-1, or (q, u, v, k) with the half-trace y0 of
    lam in the integer dyadic (u/2^k, v/2^k].  I, A, ..., A^(deg m - 1) are
    formed once.  For lam = +-1, lam, r(lam) and the rows of r(A) are exact
    integers.  Otherwise they are outward-rounded mpmath.iv enclosures at
    ``prec`` bits: dps_to_prec(dps) plus _MARGIN_BITS plus the guard bits
    of max_k |A^k| * sum |m_k|, the size of the terms of r(A);
    lam = (y0 + i*sqrt(4 - y0^2))/2 with y0 in the first bracket of
    polynomials._dyadic_brackets(root) narrower than 2^-prec.
    """

    def __init__(self, a: IntMatrix, m: IntPolynomial, root: Optional[UnitRoot], dps: int):
        import mpmath
        from mpmath.libmp import dps_to_prec

        from .polynomials import _dyadic_brackets

        dps = _as_count(dps, "dps", 1)
        if root is None:
            raise PreconditionError("matrix has no eigenvalue of modulus one")
        self.m, self.root, self.dps = m, root, dps
        self.exact = isinstance(root, int)
        powers = [type(a).identity(a.n)]
        for _ in range(m.degree - 1):
            powers.append(powers[-1] @ a)
        big = max(abs(x) for pw in powers for row in pw.rows for x in row)
        self.prec = (dps_to_prec(dps) + _MARGIN_BITS
                     + (big * sum(map(abs, m.coeffs))).bit_length())
        iv, saved = mpmath.iv, mpmath.iv.prec
        try:
            iv.prec = self.prec
            if self.exact:
                lam = root
            else:
                u, v, k = next(b for b in _dyadic_brackets(root)
                               if (b[1] - b[0]) << self.prec <= 1 << b[2])
                y0 = iv.mpf([u, v]) / 2 ** k
                lam = iv.mpc(y0 / 2, iv.sqrt(4 - y0 ** 2) / 2)
            # r = m / (x - lam), highest coefficient first, and r(lam), by Horner
            r, acc = [], 0
            for c in reversed(m.coeffs[1:]):
                acc = acc * lam + c
                r.append(acc)
            self.lam, self.r_lam = lam, 0
            for c in r:
                self.r_lam = self.r_lam * lam + c
            r.reverse()
            self.rows = [[sum(c * pw.rows[i][j] for c, pw in zip(r, powers))
                          for j in range(a.n)] for i in range(a.n)]
        finally:
            iv.prec = saved

    def projector(self):
        """P = r(A)/r(lam), for lam a simple root of m, from the midpoints
        of the enclosures, as an mpmath matrix at prec bits."""
        import mpmath

        with mpmath.workprec(self.prec):
            scale = 1 / mpmath.mpmathify(_midpoint(self.r_lam))
            return mpmath.matrix([[scale * _midpoint(z) for z in row] for row in self.rows])


def _midpoint(z):
    """The midpoint of an _Eigenline number: itself if exact, else the
    midpoint of its mpmath.iv enclosure, at the working precision."""
    import mpmath

    if isinstance(z, int):
        return z
    return mpmath.mpc(*((mpmath.mpf(x.a) + mpmath.mpf(x.b)) / 2 for x in (z.real, z.imag)))


# -- eigenline projection seminorm ---------------------------------------


def _eigenline_seminorm(line: _Eigenline) -> LengthEvaluator:
    """unit_eigen_seminorm(a, line.dps) from the eigenline of A."""
    import mpmath

    from .polynomials import _gcd, vanishes_at

    if vanishes_at(_gcd(line.m, line.m.derivative()), line.root):
        raise NumericalDegeneracyError("defective eigenvalue: eigenline pairing singular")
    dps, proj = line.dps, line.projector()
    with mpmath.workdps(dps):
        op_norm = max(mpmath.svd_c(proj, compute_uv=False))
    n = len(line.rows)

    def func(v: Sequence[Union[int, Fraction]]) -> float:
        if len(v) != n:
            raise PreconditionError("dimension mismatch")
        with mpmath.workdps(dps):
            col = mpmath.matrix([mpmath.mpf(x.numerator) / x.denominator
                                 for x in map(_as_rational, v)])
            return float(mpmath.norm(proj * col) / op_norm)

    return LengthEvaluator(
        name="unit-eigen-seminorm",
        domain="lattice",
        func=func,
        exact=False,
    )


def unit_eigen_seminorm(a: IntMatrix, dps: int = 30) -> LengthEvaluator:
    """Seminorm v -> |P v| / |P|_2, P the spectral projector of a unit-circle eigenvalue.

    The eigenvalue lam is located exactly on the minimal polynomial m
    (polynomials.unit_circle_root) and P = r(A)/r(lam) with m = (x - lam)*r.
    P commutes with A and A acts on its range by lam, |lam| = 1, so the
    value is invariant under v -> A v.  P is taken at the midpoints of its
    _Eigenline enclosure, whose entries are at most 10^-dps max |P_ij|
    wide for the matrices the tests pin; the operator norm (singular
    values, mpmath.svd_c) and the values are computed at dps >= 1 digits
    and returned as floats.  Raises PreconditionError without a
    modulus-one eigenvalue and NumericalDegeneracyError when lam is a
    repeated root of m (A is not diagonalizable on that eigenvalue).
    """
    from .matrices import minimal_poly
    from .polynomials import unit_circle_root

    m = minimal_poly(a)
    return _eigenline_seminorm(_Eigenline(a, m, unit_circle_root(m), dps))


# -- eigen-functional bound on semidirect-product word lengths -----------


def _eigen_functional(line: _Eigenline) -> Optional[Callable[[SdpElem, int], bool]]:
    """exceeds(g, c), True only if phi(g) > c, for the lower bound

        phi(v, t) = |t| + |rho . v| / max_i |rho_i|  <=  |(v, t)|

    on word lengths in Z^n x|_A Z, where A, m = (x - lam) r and lam are
    those of the eigenline and rho is the first row of r(A) that is
    certainly nonzero.

    Proof.  r(A)(A - lam) = m(A) = 0, so rho A = lam rho, even when lam is
    a repeated root of m; and r(A) != 0 as deg r < deg m.  The letter
    e_i^+-1 moves (v, t) to (v +- A^t e_i, t), and rho . A^t e_i =
    lam^t rho_i has modulus |rho_i|, as |lam| = 1; the letter t^+-1 moves t
    by one.  So phi is 1-Lipschitz on the Cayley graph, and phi(1) = 0.

    Exactness.  For lam = +-1, rho is an exact integer row.  Otherwise
    each end of the eigenline's enclosure of rho is rounded outward to an
    integer over 2^prec.  The test then bounds |rho . v|^2 below and
    max_i |rho_i|^2 above in integer arithmetic; an enclosure too wide to
    decide reads False, and None is returned when no row is certainly
    nonzero.
    """
    bits = 0 if line.exact else line.prec

    def ends(z):
        if line.exact:
            return (z, z), (0, 0)
        return _outward_ints(z.real, bits), _outward_ints(z.imag, bits)

    for row in line.rows:
        rho = [ends(z) for z in row]
        if any(lo > 0 or hi < 0 for part in rho for lo, hi in part):
            break
    else:
        return None  # no row of the enclosure is certainly nonzero
    # max_i |rho_i|^2 from above, times 4^bits
    top = max(max(-lo, hi) ** 2 + max(-lo2, hi2) ** 2 for (lo, hi), (lo2, hi2) in rho)
    parts = list(zip(*rho))  # the real parts of rho, then the imaginary parts

    def exceeds(g: SdpElem, c: int) -> bool:
        d = c - abs(g.t)
        if d < 0:
            return True
        low = 0  # |rho . v|^2 from below, times 4^bits
        for part in parts:
            lo = sum(min(x * e_lo, x * e_hi) for x, (e_lo, e_hi) in zip(g.v, part))
            hi = sum(max(x * e_lo, x * e_hi) for x, (e_lo, e_hi) in zip(g.v, part))
            low += max(lo, -hi, 0) ** 2
        return low > d * d * top

    return exceeds


def _outward_ints(x, bits: int) -> tuple[int, int]:
    """(floor(2^bits a), ceil(2^bits b)) for the mpmath.iv interval [a, b]
    whose ends have at most ``bits`` bits: exact at that precision."""
    import mpmath

    with mpmath.workprec(bits):
        lo, hi = (mpmath.ldexp(mpmath.mpf(e), bits) for e in (x.a, x.b))
        return int(mpmath.floor(lo)), int(mpmath.ceil(hi))


# -- axiom checking ------------------------------------------------------


class AxiomVerdict(_Record):
    __slots__ = ("passed", "counterexample")
    _defaults = {"counterexample": None}

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "counterexample": self.counterexample}


class AxiomReport(_Record):
    __slots__ = ("homogeneity", "conjugation_invariance", "commuting_subadditivity",
                 "samples", "tolerance")

    @property
    def all_passed(self) -> bool:
        return (self.homogeneity.passed and self.conjugation_invariance.passed
                and self.commuting_subadditivity.passed)

    def to_json_dict(self) -> dict:
        return {
            "homogeneity": self.homogeneity.to_json_dict(),
            "conjugation_invariance": self.conjugation_invariance.to_json_dict(),
            "commuting_subadditivity": self.commuting_subadditivity.to_json_dict(),
            "samples": self.samples,
            "tolerance": self.tolerance,
        }


# Both samplers draw each axiom case with its composite element:
# power_case (g, k, g^k), conjugation_case (g, h, hgh^-1) and
# commuting_case (u, v, uv) for commuting u, v.


class _HeisSampler:
    """Exact axiom cases for the Heisenberg domain.

    Commuting pairs are built from proportional abelianized parts plus
    arbitrary central coordinates; those are exactly the commuting pairs,
    so axiom (3) never sees a non-commuting input.
    """

    def __init__(self, rng: random.Random, coord_range: int = 2, central_range: int = 3):
        self.rng = rng
        self.cr = coord_range
        self.zr = central_range

    def element(self) -> HeisElem:
        r = self.rng
        return HeisElem(r.randint(-self.cr, self.cr), r.randint(-self.cr, self.cr),
                        r.randint(-self.zr, self.zr))

    def power_case(self) -> tuple[HeisElem, int, HeisElem]:
        g, k = self.element(), self.rng.randint(-3, 3)
        return g, k, g ** k

    def conjugation_case(self) -> tuple[HeisElem, HeisElem, HeisElem]:
        g, h = self.element(), self.element()
        return g, h, g.conjugate_by(h)

    def commuting_case(self) -> tuple[HeisElem, HeisElem, HeisElem]:
        r = self.rng
        p, q = r.randint(-self.cr, self.cr), r.randint(-self.cr, self.cr)
        g = gcd(abs(p), abs(q))
        if g > 1:
            p, q = p // g, q // g
        alpha, beta = r.randint(-2, 2), r.randint(-2, 2)
        u = HeisElem(alpha * p, alpha * q, r.randint(-self.zr, self.zr))
        v = HeisElem(beta * p, beta * q, r.randint(-self.zr, self.zr))
        return u, v, u * v


class _LatticeSampler:
    """Axiom cases on Z^n, coordinates in [-100, 100].

    In the ambient semidirect product, conjugating a lattice vector by the
    distinguished generator applies the twist (the identity when there is
    none), named "twist" in the case; all lattice pairs commute.
    """

    def __init__(self, rng: random.Random, n: int, twist: Optional[IntMatrix] = None):
        self.rng = rng
        self.n = n
        self.twist = twist

    def element(self) -> tuple[int, ...]:
        return tuple(self.rng.randint(-100, 100) for _ in range(self.n))

    def power_case(self):
        v, k = self.element(), self.rng.randint(-3, 3)
        return v, k, tuple(k * a for a in v)

    def conjugation_case(self):
        v = self.element()
        return v, "twist", v if self.twist is None else self.twist.apply(v)

    def commuting_case(self):
        u, v = self.element(), self.element()
        return u, v, tuple(a + b for a, b in zip(u, v))


def check_axioms(length: LengthEvaluator, sample_budget: int = 1000,
                 tolerance: Optional[float] = None, seed: int = 0, *,
                 twist: Optional[IntMatrix] = None) -> AxiomReport:
    """Property-check the three length-function axioms on random samples.

    Heisenberg evaluators are sampled on small elements, lattice evaluators
    on Z^n with ``twist`` as conjugation, n its size; without a twist, on
    Z^2 with the identity.
    Each sample draws one case for each axiom that has not failed yet, in
    the order homogeneity, conjugation invariance, commuting subadditivity,
    all from one generator seeded with ``seed``; so a seed fixes the report.
    Cases the evaluator cannot answer (OracleExhausted, CoverageGap,
    ResourceExhausted) are skipped, as stable_length_estimate skips them.
    Exact evaluators are compared with exact equality, numeric ones up to
    the tolerance, which must be a finite number >= 0.  A failed verdict
    carries its first counterexample with both side values.
    """
    if tolerance is not None and not (isfinite(tolerance) and tolerance >= 0):
        raise PreconditionError(f"tolerance must be a finite number >= 0, got {tolerance}")
    sample_budget = _as_count(sample_budget, "sample_budget", 1)
    rng = random.Random(seed)
    if length.domain == "heisenberg":
        sampler = _HeisSampler(rng)
    elif length.domain == "lattice":
        sampler = _LatticeSampler(rng, 2 if twist is None else twist.n, twist)
    else:
        raise PreconditionError(f"no sampler for domain {length.domain!r}")
    tol = tolerance if tolerance is not None else (0.0 if length.exact else 1e-9)
    ell = length.evaluate

    def differs(lhs, rhs) -> bool:
        if length.exact and tol == 0.0:
            return lhs != rhs
        return abs(lhs - rhs) > tol

    # (axiom, case drawer, its two sides, failure test, counterexample keys)
    axioms = (
        ("homogeneity", sampler.power_case,
         lambda g, k, gk: (ell(gk), abs(k) * ell(g)), differs,
         ("g", "n", "l(g^n)", "abs(n)*l(g)")),
        ("conjugation", sampler.conjugation_case,
         lambda g, h, hgh: (ell(hgh), ell(g)), differs,
         ("g", "h", "l(hgh^-1)", "l(g)")),
        ("commuting_subadditivity", sampler.commuting_case,
         lambda u, v, uv: (ell(uv), ell(u) + ell(v)), lambda lhs, rhs: lhs > rhs + tol,
         ("a", "b", "l(ab)", "l(a)+l(b)")),
    )
    verdicts = [AxiomVerdict(True) for _ in axioms]
    for _ in range(sample_budget):
        for i, (axiom, draw, sides, fails, keys) in enumerate(axioms):
            if not verdicts[i].passed:
                continue
            first, second, composite = draw()
            try:
                lhs, rhs = sides(first, second, composite)
            except (OracleExhausted, CoverageGap, ResourceExhausted):
                continue
            if fails(lhs, rhs):
                # Heisenberg elements are reported by their coordinates
                shown = (getattr(first, "key", first), getattr(second, "key", second), lhs, rhs)
                verdicts[i] = AxiomVerdict(False, {"axiom": axiom, **dict(zip(keys, shown))})
        if not any(v.passed for v in verdicts):
            break

    return AxiomReport(*verdicts, sample_budget, tol)


# -- stable norm domination ----------------------------------------------


class DominationRow(_Record):
    """A sampled element (x, y, z) and the infimum of its stable-length
    estimate: a Value, or None when no power was sampled.  ``within``
    says whether it is at most ``bound`` = K*(|x|+|y|) plus ``slack``."""

    __slots__ = ("element", "infimum", "bound", "slack", "within")


class DominationReport(_Record):
    __slots__ = ("precondition_ok", "precondition_counterexample", "max_generator_value",
                 "rows")

    @property
    def all_within(self) -> bool:
        return self.precondition_ok and all(r.within for r in self.rows)


def stable_norm_domination_check(length: LengthEvaluator,
                                 sample_set: Sequence[HeisElem],
                                 k_max: int = 16,
                                 seed: int = 0) -> DominationReport:
    """Check stable-length estimates against K*(|x|+|y|) with K = max L(s).

    Precondition: L must be a semi-norm (symmetric, subadditive on all
    pairs, commuting or not); this is spot-checked first and a violation
    aborts the main check.  Spot checks the evaluator cannot answer
    (OracleExhausted, CoverageGap, ResourceExhausted) are skipped, as
    stable_length_estimate skips them.  The slack term accounts for the
    finite-k truncation: it is K/k times a certified word-length bound on
    the central correction of the k-th power.
    """
    from fractions import Fraction

    rng = random.Random(seed)
    sampler = _HeisSampler(rng, coord_range=4, central_range=4)
    for _ in range(500):
        g, h = sampler.element(), sampler.element()
        try:
            if length.evaluate(g.inverse()) != length.evaluate(g):
                return DominationReport(False, {
                    "property": "symmetry", "g": (g.x, g.y, g.z),
                    "l(g)": length.evaluate(g), "l(g^-1)": length.evaluate(g.inverse()),
                }, None, [])
            lhs = length.evaluate(g * h)
            rhs = length.evaluate(g) + length.evaluate(h)
        except (OracleExhausted, CoverageGap, ResourceExhausted):
            continue
        if lhs > rhs:
            return DominationReport(False, {
                "property": "subadditivity", "g": (g.x, g.y, g.z),
                "h": (h.x, h.y, h.z), "l(gh)": lhs, "l(g)+l(h)": rhs,
            }, None, [])

    max_gen = max(Fraction(length.evaluate(s)) for s in HEIS_GENERATORS)
    rows = []
    for g in sample_set:
        est = stable_length_estimate(length, g, k_max)
        bound = max_gen * (abs(g.x) + abs(g.y))
        central = k_max * abs(g.z) + (k_max * (k_max + 1) // 2) * abs(g.x * g.y)
        slack = Fraction(2 * ceil_two_sqrt(central), k_max) * max_gen if max_gen else Fraction(0)
        inf = est.infimum
        within = inf is not None and Fraction(inf) <= bound + slack
        rows.append(DominationRow((g.x, g.y, g.z), inf, bound, slack, within))
    return DominationReport(True, None, max_gen, rows)
