"""Length functions as first-class evaluators.

Closed-form Heisenberg word lengths with a BFS fallback, stable word
length, subadditive-limit estimation, rational extension of lattice length
functions, the eigenline projection seminorm, a quadratically-growing
length function, and a property-based checker for the three length-function
axioms (homogeneity along powers, conjugation invariance, subadditivity on
commuting pairs).
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd, isfinite, isqrt
from typing import Callable, NamedTuple, Optional, Sequence, Union

import mpmath

from .errors import (
    LengrpError,
    NumericalDegeneracyError,
    OracleExhausted,
    PreconditionError,
    ResourceExhausted,
)
from .groups import (
    HEIS_A,
    HEIS_B,
    HeisElem,
    HeisenbergGroup,
    bfs_ball,
    bfs_word_length,
)
from .matrices import IntMatrix, minimal_poly
from .polynomials import (
    IntPolynomial,
    UnitRoot,
    _fp,
    _fp_gcd,
    unit_circle_root,
    vanishes_at,
)

Value = Union[int, Fraction, float]

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


def _symmetry_orbit(x: int, y: int, z: int) -> set[tuple[int, int, int]]:
    # d(x,y,z) = d(-x,y,-z) = d(x,-y,-z) = d(y,x,z): signed permutations of
    # (x, y), with z times the product of the signs
    return {img for sx in (1, -1) for sy in (1, -1)
            for img in ((sx * x, sy * y, sx * sy * z), (sy * y, sx * x, sx * sy * z))}


def normalize_heis_coords(x: int, y: int, z: int) -> tuple[int, int, int]:
    """A symmetry-equivalent representative with z >= 0, x >= 0, x >= y >= -x."""
    candidates = [
        (cx, cy, cz)
        for cx, cy, cz in _symmetry_orbit(x, y, z)
        if cz >= 0 and cx >= 0 and cx >= cy >= -cx
    ]
    if not candidates:
        raise AssertionError("symmetry orbit always contains a normalized triple")
    # when z = 0 both (x, y, 0) and (x, -y, 0) normalize; prefer y >= 0,
    # where the closed-form cases live
    return max(candidates, key=lambda c: (c[1], c))


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


class HeisWordOracle:
    """Exact Heisenberg word lengths: closed form first, BFS fallback.

    Keeps a shared ball for cheap repeated fallback lookups and answers
    rarer, deeper queries with bidirectional search.
    """

    def __init__(self, ball_radius: int = 18, max_radius: int = 40):
        self.group = HeisenbergGroup()
        self.ball_radius = ball_radius
        self.max_radius = max_radius
        self._ball = None

    def _lookup(self, g: HeisElem) -> Optional[int]:
        if self._ball is None and self.ball_radius > 0:
            self._ball = bfs_ball(self.group, self.ball_radius)
        if self._ball is not None:
            hit = self._ball.word_length(g.key)
            if hit is not None:
                return hit
        return bfs_word_length(self.group, g, self.max_radius)

    def word_length(self, g: HeisElem) -> WordLengthResult:
        closed = blachere_word_length(g.x, g.y, g.z)
        if closed is not None:
            return WordLengthResult(closed, "formula")
        value = self._lookup(g)
        if value is None:
            raise OracleExhausted(
                f"word length of {g} exceeds the oracle radius {self.max_radius}"
            )
        return WordLengthResult(value, "oracle")


_DEFAULT_ORACLE: Optional[HeisWordOracle] = None


def heis_word_length(x: int, y: int, z: int) -> WordLengthResult:
    """Total exact word-length evaluator; records which path answered."""
    global _DEFAULT_ORACLE
    if _DEFAULT_ORACLE is None:
        _DEFAULT_ORACLE = HeisWordOracle()
    return _DEFAULT_ORACLE.word_length(HeisElem(x, y, z))


# -- evaluators ----------------------------------------------------------


@dataclass
class LengthEvaluator:
    """A deterministic nonnegative evaluator on a fixed domain.

    ``domain`` is "heisenberg" (HeisElem arguments) or "lattice" (integer
    vectors).  ``stable_limit``, when set, returns the known exact value of
    the subadditive limit along powers.
    """

    name: str
    domain: str
    func: Callable[..., Value]
    exact: bool
    stable_limit: Optional[Callable[..., Value]] = None

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


def word_length_evaluator(closed_form_only: bool = False) -> LengthEvaluator:
    """Raw word metric d_S.  Not a length function: homogeneity fails.

    With ``closed_form_only`` the evaluator raises CoverageGap instead of
    consulting the BFS oracle.
    """
    oracle = HeisWordOracle()

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


def lattice_swl_evaluator() -> LengthEvaluator:
    """The stable word length pushed to the abelianization Z^2."""
    return LengthEvaluator(
        name="swl-abelianized",
        domain="lattice",
        func=lambda v: abs(v[0]) + abs(v[1]),
        exact=True,
    )


# -- stable length estimation --------------------------------------------


@dataclass
class StableLengthEstimate:
    """Samples of L(g^k)/k with the Fekete running infimum.

    The infimum over sampled k upper-bounds the true stable length; the
    declared limit is filled in only when a closed form is known and every
    requested power was sampled.
    """

    element: object
    samples: list[tuple[int, Value, Value]]  # (k, L(g^k), ratio)
    running_infimum: list[Value]
    skipped: list[int] = field(default_factory=list)
    partial: bool = False
    declared_limit: Optional[Value] = None
    subadditivity_violations: list[tuple[int, int]] = field(default_factory=list)

    @property
    def infimum(self) -> Optional[Value]:
        return self.running_infimum[-1] if self.running_infimum else None


def stable_length_estimate(length: LengthEvaluator, g, k_max: int) -> StableLengthEstimate:
    """Sample L(g^k)/k for k = 1..k_max and report the running infimum.

    Subadditivity along the sampled powers is checked, not assumed; any
    violating pair is recorded.  Powers the evaluator cannot answer are
    skipped (closed-form gaps) or flag the estimate partial (oracle limits).
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    samples: list[tuple[int, Value, Value]] = []
    skipped: list[int] = []
    partial = False
    values: dict[int, Value] = {}
    for k in range(1, k_max + 1):
        try:
            val = length.evaluate(g ** k)
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
    if length.domain != "lattice":
        raise PreconditionError("rational extension needs a lattice evaluator")
    fracs = [Fraction(x) for x in q]
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


# -- eigenline projection seminorm ---------------------------------------


def _unit_circle_eigenvalue(root: UnitRoot):
    """lam at the working precision, from root = unit_circle_root(m).

    lam is +-1, or (y0 + i*sqrt(4 - y0^2))/2 with y0 the only root of the
    squarefree q in the dyadic interval (lo, hi], across which q changes
    sign.  q is monic, so a rational y0 is -1, 0 or 1, taken exactly.
    Otherwise bisection on the sign of q at dyadic points u/2^k, read off
    the integer 2^(k deg q) q(u/2^k), brackets y0 until both ends round to
    the same working-precision number, which is then y0 correctly rounded.
    """
    if isinstance(root, int):
        return mpmath.mpf(root)
    q, lo, hi = root

    def sign(u: int, k: int) -> int:
        acc, scale = 0, 1
        for c in reversed(q.coeffs):
            acc, scale = acc * u + c * scale, scale << k
        return (acc > 0) - (acc < 0)

    k = max(lo.denominator, hi.denominator).bit_length() - 1
    u, v = int(lo * 2 ** k), int(hi * 2 ** k)  # y0 in (u/2^k, v/2^k]
    for t in (-1, 0, 1):
        if lo < t <= hi and q(t) == 0:
            u = v = t << k
    sign_v = sign(v, k)
    while mpmath.mpf((u, -k)) != mpmath.mpf((v, -k)):  # (mantissa, exponent), rounded
        u, v, k = 2 * u, 2 * v, k + 1
        mid = (u + v) // 2
        if sign(mid, k) == sign_v:
            v = mid
        else:
            u = mid
    y0 = mpmath.mpf((v, -k))
    return mpmath.mpc(y0 / 2, mpmath.sqrt(4 - y0 * y0) / 2)


def _eigenline(a: IntMatrix, m: IntPolynomial, dps: int):
    """(root, lam, P) for A with minimal polynomial m: the exact location
    root = unit_circle_root(m) of an eigenvalue lam, |lam| = 1, then lam and
    the spectral projector P onto its eigenspace to about dps digits.

    With m = (x - lam)*r, P = r(A)/r(lam) if lam is a simple root of m
    (decided exactly on gcd(m, m')).  r(A) is summed over exact integer
    powers of A, with guard digits for the size of those powers.
    """
    if dps < 1:
        raise PreconditionError(f"dps must be >= 1, got {dps}")
    root = unit_circle_root(m)
    if root is None:
        raise PreconditionError("matrix has no eigenvalue of modulus one")
    if vanishes_at(IntPolynomial.from_fractions(_fp_gcd(_fp(m), _fp(m.derivative()))), root):
        raise NumericalDegeneracyError("defective eigenvalue: eigenline pairing singular")
    powers = [IntMatrix.identity(a.n)]
    for _ in range(m.degree - 1):
        powers.append(powers[-1] @ a)
    big = max(abs(x) for pw in powers for row in pw.rows for x in row)
    guard = len(str(big * sum(abs(c) for c in m.coeffs)))
    with mpmath.workdps(dps + guard):
        lam = _unit_circle_eigenvalue(root)
        r, acc = [], 0  # m = (x - lam)*r by Horner, highest coefficient first
        for c in reversed(m.coeffs[1:]):
            acc = acc * lam + c
            r.append(acc)
        scale = 1 / mpmath.polyval(r, lam)
        proj = mpmath.matrix([[scale * mpmath.fsum(c * pw.rows[i][j]
                                                   for c, pw in zip(reversed(r), powers))
                               for j in range(a.n)] for i in range(a.n)])
    return root, lam, proj


def _unit_eigen_projector(a: IntMatrix, dps: int):
    """(lam, P): a modulus-one eigenvalue of A and its spectral projector."""
    return _eigenline(a, minimal_poly(a), dps)[1:]


def _eigenline_seminorm(a: IntMatrix, m: IntPolynomial, dps: int):
    """(root, unit_eigen_seminorm(a, dps)) for A with minimal polynomial m."""
    root, _, proj = _eigenline(a, m, dps)
    with mpmath.workdps(dps):
        op_norm = max(mpmath.svd_c(proj, compute_uv=False))

    def func(v: Sequence[Union[int, Fraction]]) -> float:
        if len(v) != a.n:
            raise PreconditionError("dimension mismatch")
        with mpmath.workdps(dps):
            col = mpmath.matrix([mpmath.mpf(x.numerator) / x.denominator for x in v])
            return float(mpmath.norm(proj * col) / op_norm)

    return root, LengthEvaluator(
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
    value is invariant under v -> A v.  lam, P and the operator norm
    (singular values, mpmath.svd_c) carry about dps >= 1 correct digits;
    values are returned as floats.  Raises PreconditionError without a
    modulus-one eigenvalue and NumericalDegeneracyError when lam is a
    repeated root of m (A is not diagonalizable on that eigenvalue).
    """
    return _eigenline_seminorm(a, minimal_poly(a), dps)[1]


# -- axiom checking ------------------------------------------------------


@dataclass
class AxiomVerdict:
    passed: bool
    counterexample: Optional[dict] = None


@dataclass
class AxiomReport:
    homogeneity: AxiomVerdict
    conjugation_invariance: AxiomVerdict
    commuting_subadditivity: AxiomVerdict
    samples: int
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return (self.homogeneity.passed and self.conjugation_invariance.passed
                and self.commuting_subadditivity.passed)

    def to_json_dict(self) -> dict:
        return asdict(self)


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
                 lattice_dim: int = 2, twist: Optional[IntMatrix] = None) -> AxiomReport:
    """Property-check the three length-function axioms on random samples.

    Heisenberg evaluators are sampled on small elements, lattice evaluators
    on Z^lattice_dim with ``twist`` (default the identity) as conjugation.
    Each sample draws one case for each axiom that has not failed yet, in
    the order homogeneity, conjugation invariance, commuting subadditivity,
    all from one generator seeded with ``seed``; so a seed fixes the report.
    Cases the evaluator cannot answer (OracleExhausted, CoverageGap) are
    skipped.  Exact evaluators are compared with exact equality, numeric
    ones up to the tolerance, which must be a finite number >= 0.  A failed
    verdict carries its first counterexample with both side values.
    """
    if tolerance is not None and not (isfinite(tolerance) and tolerance >= 0):
        raise PreconditionError(f"tolerance must be a finite number >= 0, got {tolerance}")
    if sample_budget < 1:
        raise PreconditionError(f"sample_budget must be >= 1, got {sample_budget}")
    rng = random.Random(seed)
    if length.domain == "heisenberg":
        sampler = _HeisSampler(rng)
    elif length.domain == "lattice":
        sampler = _LatticeSampler(rng, lattice_dim, twist)
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
            except (OracleExhausted, CoverageGap):
                continue
            if fails(lhs, rhs):
                # Heisenberg elements are reported by their coordinates
                shown = (getattr(first, "key", first), getattr(second, "key", second), lhs, rhs)
                verdicts[i] = AxiomVerdict(False, {"axiom": axiom, **dict(zip(keys, shown))})
        if not any(v.passed for v in verdicts):
            break

    return AxiomReport(*verdicts, sample_budget, tol)


# -- stable norm domination ----------------------------------------------


@dataclass
class DominationRow:
    element: tuple[int, int, int]
    infimum: Optional[Value]
    bound: Fraction
    slack: Fraction
    within: bool


@dataclass
class DominationReport:
    precondition_ok: bool
    precondition_counterexample: Optional[dict]
    max_generator_value: Optional[Fraction]
    rows: list[DominationRow]

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
    aborts the main check.  The slack term accounts for the finite-k
    truncation: it is K/k times a certified word-length bound on the
    central correction of the k-th power.
    """
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
        except (OracleExhausted, CoverageGap):
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
