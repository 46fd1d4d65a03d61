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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, NamedTuple, Optional, Sequence, Union

import mpmath
from mpmath.libmp import NoConvergence

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
from .matrices import IntMatrix, char_poly
from .polynomials import (
    IntPolynomial,
    half_trace_transform,
    has_unit_circle_eigenvalue,
    self_reciprocal_part,
    squarefree_part,
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
    # d(x,y,z) = d(-x,y,-z) = d(x,-y,-z) = d(-x,-y,z) = d(y,x,z)
    seen = {(x, y, z)}
    frontier = [(x, y, z)]
    while frontier:
        cx, cy, cz = frontier.pop()
        for img in (
            (-cx, cy, -cz),
            (cx, -cy, -cz),
            (-cx, -cy, cz),
            (cy, cx, cz),
        ):
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


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


def heis_word_length(x: int, y: int, z: int,
                     oracle: Optional[HeisWordOracle] = None) -> WordLengthResult:
    """Total exact word-length evaluator; records which path answered."""
    global _DEFAULT_ORACLE
    if oracle is None:
        if _DEFAULT_ORACLE is None:
            _DEFAULT_ORACLE = HeisWordOracle()
        oracle = _DEFAULT_ORACLE
    return oracle.word_length(HeisElem(x, y, z))


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
    description: str = ""
    stable_limit: Optional[Callable[..., Value]] = None

    def evaluate(self, g) -> Value:
        return self.func(g)

    __call__ = evaluate


def swl_evaluator() -> LengthEvaluator:
    return LengthEvaluator(
        name="swl",
        domain="heisenberg",
        func=swl_heisenberg,
        exact=True,
        description="stable word length |x| + |y|",
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
        description="quadratically growing length function, not a stable norm",
        stable_limit=quadratic_length,
    )


def zero_evaluator(domain: str = "heisenberg") -> LengthEvaluator:
    return LengthEvaluator(
        name="zero", domain=domain, func=lambda g: 0, exact=True,
        description="identically zero", stable_limit=lambda g: 0,
    )


def word_length_evaluator(closed_form_only: bool = False,
                          oracle: Optional[HeisWordOracle] = None) -> LengthEvaluator:
    """Raw word metric d_S.  Not a length function: homogeneity fails.

    With ``closed_form_only`` the evaluator raises CoverageGap instead of
    consulting the BFS oracle.
    """
    oracle = oracle or HeisWordOracle()

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
        description="word length for the generating set {a,b,a^-1,b^-1}",
        stable_limit=swl_heisenberg,
    )


def lattice_swl_evaluator() -> LengthEvaluator:
    """The stable word length pushed to the abelianization Z^2."""
    return LengthEvaluator(
        name="swl-abelianized",
        domain="lattice",
        func=lambda v: abs(v[0]) + abs(v[1]),
        exact=True,
        description="l1 norm on the abelianized Heisenberg group",
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


def _mp_nullspace(m: list[list], threshold) -> list[list]:
    """Basis of the nullspace of a small complex matrix, as column vectors."""
    n = len(m)
    rows = [list(row) for row in m]
    pivots = []
    r = 0
    for c in range(n):
        piv, piv_val = None, threshold
        for i in range(r, n):
            if abs(rows[i][c]) > piv_val:
                piv, piv_val = i, abs(rows[i][c])
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r:
                f = rows[i][c]
                if abs(f) > 0:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [mpmath.mpc(0)] * n
        vec[fc] = mpmath.mpc(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][fc]
        basis.append(vec)
    return basis


def _unit_circle_eigenvalue(p: IntPolynomial, dps: int):
    """A modulus-one root of the characteristic polynomial p."""
    if p(1) == 0:
        return mpmath.mpf(1)
    if p(-1) == 0:
        return mpmath.mpf(-1)
    r = self_reciprocal_part(p)
    q = squarefree_part(half_trace_transform(r))
    try:
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(q.coeffs)], maxsteps=200)
    except NoConvergence as exc:
        raise NumericalDegeneracyError(f"unit-circle eigenvalue did not converge: {exc}") from exc
    tol = mpmath.mpf(10) ** (-(dps // 2))
    real_roots = sorted(
        float(z.real) for z in (mpmath.mpc(z) for z in roots)
        if abs(z.imag) < tol and -2 < z.real < 2
    )
    if not real_roots:
        raise NumericalDegeneracyError("no refined unit-circle eigenvalue found")
    y0 = mpmath.mpf(real_roots[0])
    return mpmath.mpc(y0 / 2, mpmath.sqrt(4 - y0 * y0) / 2)


def unit_eigen_seminorm(a: IntMatrix, dps: int = 30) -> LengthEvaluator:
    """Seminorm v -> |projection of v onto a unit-circle eigenline|.

    The spectral projector P onto the eigenspace of a modulus-one eigenvalue
    commutes with A and A acts on its range by a modulus-one scalar, so the
    evaluator is invariant under v -> A v up to the working precision.
    Scaled so the projector has operator norm 1.
    """
    p = char_poly(a)
    if not has_unit_circle_eigenvalue(p):
        raise PreconditionError("matrix has no eigenvalue of modulus one")
    n = a.n
    with mpmath.workdps(dps):
        lam = _unit_circle_eigenvalue(p, dps)
        threshold = mpmath.mpf(10) ** (-(dps // 2))
        m_right = [[mpmath.mpc(a.rows[i][j]) - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        m_left = [[mpmath.mpc(a.rows[j][i]) - (lam if i == j else 0) for j in range(n)]
                  for i in range(n)]
        right = _mp_nullspace(m_right, threshold)
        left = _mp_nullspace(m_left, threshold)
        if not right or len(right) != len(left):
            raise NumericalDegeneracyError("ill-conditioned eigenspace")
        k = len(right)
        # pairing uses the transpose (not conjugate): w^T A = lam w^T
        pairing = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(k):
                pairing[i, j] = sum(left[i][t] * right[j][t] for t in range(n))
        # |det| from QR: mpmath's LU (hence mpmath.det) fails on an exactly
        # singular pairing instead of returning 0
        _, upper = mpmath.qr(pairing)
        if abs(mpmath.fprod(upper[i, i] for i in range(k))) < threshold:
            raise NumericalDegeneracyError("defective eigenvalue: eigenline pairing singular")
        inv = pairing ** -1
        proj = [[sum(right[jj][i] * inv[jj, ii] * left[ii][j]
                     for jj in range(k) for ii in range(k))
                 for j in range(n)] for i in range(n)]
        # operator 2-norm via power iteration on P^H P; vec stays unit, so
        # the norm of (P^H P) vec converges to the top singular value squared
        vec = [mpmath.mpc(1) / mpmath.sqrt(n)] * n
        sigma_sq = mpmath.mpf(1)
        for _ in range(200):
            pv = [sum(proj[i][j] * vec[j] for j in range(n)) for i in range(n)]
            w = [sum(mpmath.conj(proj[j][i]) * pv[j] for j in range(n)) for i in range(n)]
            nrm = mpmath.sqrt(sum(abs(x) ** 2 for x in w))
            if nrm == 0:
                sigma_sq = mpmath.mpf(1)
                break
            vec = [x / nrm for x in w]
            sigma_sq = nrm
        op_norm = mpmath.sqrt(sigma_sq)
        proj_rows = [row[:] for row in proj]

    def _to_mp(x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)

    def func(v: Sequence[Union[int, Fraction]]) -> float:
        if len(v) != n:
            raise PreconditionError("dimension mismatch")
        with mpmath.workdps(dps):
            vv = [_to_mp(x) for x in v]
            pv = [sum(proj_rows[i][j] * vv[j] for j in range(n)) for i in range(n)]
            return float(mpmath.sqrt(sum(abs(x) ** 2 for x in pv)) / op_norm)

    return LengthEvaluator(
        name="unit-eigen-seminorm",
        domain="lattice",
        func=func,
        exact=False,
        description=f"projection seminorm onto the eigenline of {lam}",
    )


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
        def verdict(v: AxiomVerdict) -> dict:
            return {"passed": v.passed, "counterexample": v.counterexample}

        return {
            "homogeneity": verdict(self.homogeneity),
            "conjugation_invariance": verdict(self.conjugation_invariance),
            "commuting_subadditivity": verdict(self.commuting_subadditivity),
            "samples": self.samples,
            "tolerance": self.tolerance,
        }


class _HeisSampler:
    """Exact sample generators for the Heisenberg domain.

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

    def power_case(self) -> tuple[HeisElem, int]:
        return self.element(), self.rng.randint(-3, 3)

    def conjugation_case(self) -> tuple[HeisElem, HeisElem]:
        return self.element(), self.element()

    def commuting_pair(self) -> tuple[HeisElem, HeisElem]:
        r = self.rng
        p, q = r.randint(-self.cr, self.cr), r.randint(-self.cr, self.cr)
        g = gcd(abs(p), abs(q))
        if g > 1:
            p, q = p // g, q // g
        alpha, beta = r.randint(-2, 2), r.randint(-2, 2)
        return (
            HeisElem(alpha * p, alpha * q, r.randint(-self.zr, self.zr)),
            HeisElem(beta * p, beta * q, r.randint(-self.zr, self.zr)),
        )

    @staticmethod
    def mul(g, h):
        return g * h

    @staticmethod
    def conj(g, h):
        return g.conjugate_by(h)

    @staticmethod
    def pow(g, k):
        return g ** k

    @staticmethod
    def describe(g):
        return (g.x, g.y, g.z)


class _LatticeSampler:
    """Samplers for Z^n with an optional twist matrix for conjugation.

    In the ambient semidirect product, conjugating a lattice vector by the
    distinguished generator applies the twist; all lattice pairs commute.
    """

    def __init__(self, rng: random.Random, n: int, twist: Optional[IntMatrix] = None,
                 coord_range: int = 100):
        self.rng = rng
        self.n = n
        self.twist = twist
        self.cr = coord_range

    def element(self) -> tuple[int, ...]:
        return tuple(self.rng.randint(-self.cr, self.cr) for _ in range(self.n))

    def power_case(self):
        return self.element(), self.rng.randint(-3, 3)

    def conjugation_case(self):
        return self.element(), None

    def commuting_pair(self):
        return self.element(), self.element()

    def mul(self, v, w):
        return tuple(a + b for a, b in zip(v, w))

    def conj(self, v, _h):
        if self.twist is None:
            return v
        return self.twist.apply(v)

    @staticmethod
    def pow(v, k):
        return tuple(k * a for a in v)

    @staticmethod
    def describe(v):
        return tuple(v)


def _make_sampler(length: LengthEvaluator, rng: random.Random, *,
                  lattice_dim: int = 2, twist: Optional[IntMatrix] = None,
                  coord_range: Optional[int] = None):
    if length.domain == "heisenberg":
        return _HeisSampler(rng, coord_range or 2)
    if length.domain == "lattice":
        return _LatticeSampler(rng, lattice_dim, twist, coord_range or 100)
    raise PreconditionError(f"no sampler for domain {length.domain!r}")


def check_axioms(length: LengthEvaluator, sample_budget: int = 1000,
                 tolerance: Optional[float] = None, seed: int = 0, *,
                 lattice_dim: int = 2, twist: Optional[IntMatrix] = None,
                 coord_range: Optional[int] = None) -> AxiomReport:
    """Property-check the three length-function axioms on random samples.

    Exact evaluators are compared with exact equality, numeric ones up to
    the tolerance.  A failed verdict always carries a counterexample with
    both side values.
    """
    rng = random.Random(seed)
    sampler = _make_sampler(length, rng, lattice_dim=lattice_dim, twist=twist,
                            coord_range=coord_range)
    tol = tolerance if tolerance is not None else (0.0 if length.exact else 1e-9)

    def differs(lhs, rhs) -> bool:
        if length.exact and tol == 0.0:
            return lhs != rhs
        return abs(lhs - rhs) > tol

    homogeneity = AxiomVerdict(True)
    conjugation = AxiomVerdict(True)
    subadd = AxiomVerdict(True)

    for _ in range(sample_budget):
        if homogeneity.passed:
            g, k = sampler.power_case()
            try:
                lhs = length.evaluate(sampler.pow(g, k))
                rhs = abs(k) * length.evaluate(g)
            except (OracleExhausted, CoverageGap):
                lhs = rhs = None
            if lhs is not None and differs(lhs, rhs):
                homogeneity = AxiomVerdict(False, {
                    "axiom": "homogeneity", "g": sampler.describe(g), "n": k,
                    "l(g^n)": lhs, "abs(n)*l(g)": rhs,
                })
        if conjugation.passed:
            g, h = sampler.conjugation_case()
            try:
                lhs = length.evaluate(sampler.conj(g, h))
                rhs = length.evaluate(g)
            except (OracleExhausted, CoverageGap):
                lhs = rhs = None
            if lhs is not None and differs(lhs, rhs):
                conjugation = AxiomVerdict(False, {
                    "axiom": "conjugation", "g": sampler.describe(g),
                    "h": sampler.describe(h) if h is not None else "twist",
                    "l(hgh^-1)": lhs, "l(g)": rhs,
                })
        if subadd.passed:
            u, v = sampler.commuting_pair()
            try:
                lhs = length.evaluate(sampler.mul(u, v))
                rhs = length.evaluate(u) + length.evaluate(v)
            except (OracleExhausted, CoverageGap):
                lhs = rhs = None
            if lhs is not None and lhs > rhs + tol:
                subadd = AxiomVerdict(False, {
                    "axiom": "commuting_subadditivity", "a": sampler.describe(u),
                    "b": sampler.describe(v), "l(ab)": lhs, "l(a)+l(b)": rhs,
                })
        if not (homogeneity.passed or conjugation.passed or subadd.passed):
            break

    return AxiomReport(homogeneity, conjugation, subadd, sample_budget, tol)


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
