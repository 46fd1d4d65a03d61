import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lengrp.classify import build_dossier
from lengrp.errors import (
    NumericalDegeneracyError,
    OracleExhausted,
    PreconditionError,
    ResourceExhausted,
)
from lengrp.groups import HeisElem, HeisenbergGroup, SdpContext, SdpElem, bfs_ball
from lengrp.lengths import (
    CoverageGap,
    _eigen_functional,
    _Eigenline,
    _outward_ints,
    HeisWordOracle,
    LengthEvaluator,
    blachere_word_length,
    ceil_two_sqrt,
    central_power_word_length,
    check_axioms,
    extend_rational,
    normalize_heis_coords,
    quadratic_evaluator,
    quadratic_length,
    sqrt_bound_witness,
    stable_length_estimate,
    stable_norm_domination_check,
    swl_evaluator,
    swl_heisenberg,
    unit_eigen_seminorm,
    word_length_evaluator,
    zero_evaluator,
)
from lengrp.matrices import IntMatrix, minimal_poly
from lengrp.polynomials import IntPolynomial, sturm_count, unit_circle_root

import exact_reference
from exact_reference import (
    eigenline,
    lattice_swl_evaluator,
    projector_enclosure,
    unit_eigen_projector,
)
from search_reference import bfs_word_length
from test_matrices import (
    CONNER,
    HYPERBOLIC,
    JORDAN,
    PROPERTY_SETTINGS,
    X,
    block_diag,
    companion,
    elementary_products,
)


def test_ceil_two_sqrt():
    assert ceil_two_sqrt(0) == 0
    assert ceil_two_sqrt(1) == 2
    assert ceil_two_sqrt(2) == 3
    assert ceil_two_sqrt(4) == 4
    assert ceil_two_sqrt(30) == 11
    for n in range(1, 500):
        m = ceil_two_sqrt(n)
        assert m * m >= 4 * n > (m - 1) * (m - 1)
    with pytest.raises(PreconditionError):
        ceil_two_sqrt(-1)


def test_central_power_word_length():
    assert central_power_word_length(0) == 0
    assert central_power_word_length(1) == 4
    assert central_power_word_length(2) == 6
    assert central_power_word_length(4) == 8
    assert central_power_word_length(30) == 22
    with pytest.raises(PreconditionError):
        central_power_word_length(-1)


def test_normalize_heis_coords():
    nx, ny, nz = normalize_heis_coords(-3, 2, -5)
    assert nz >= 0 and nx >= 0 and nx >= ny >= -nx
    # z = 0 orbits contain both sign choices for y; the y >= 0 one wins
    assert normalize_heis_coords(1, 1, 0) == (1, 1, 0)
    assert normalize_heis_coords(-1, 1, 0) == (1, 1, 0)


def test_normalize_heis_coords_matches_the_orbit_reference():
    # the box holds the ties |x| = |y|, x = 0, y = 0 and z = 0 in every sign
    for x in range(-8, 9):
        for y in range(-8, 9):
            for z in range(-40, 41):
                assert normalize_heis_coords(x, y, z) == \
                    exact_reference.normalize_heis_coords(x, y, z), (x, y, z)


def test_blachere_goldens():
    assert blachere_word_length(0, 0, 1) == 4
    assert blachere_word_length(0, 0, 2) == 6
    assert blachere_word_length(0, 0, 4) == 8
    assert blachere_word_length(2, 1, 1) == 3
    assert blachere_word_length(1, 1, 1) == 2
    assert blachere_word_length(1, 1, 7) == 10  # 2*ceil(2*sqrt(7)) - 2
    assert blachere_word_length(0, 0, 0) == 0
    # boundary x^2 >= z = xy is outside the quoted cases
    assert blachere_word_length(2, 1, 2) is None


def test_blachere_symmetries():
    rng = random.Random(8)
    for _ in range(200):
        x, y, z = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-9, 9)
        base = blachere_word_length(x, y, z)
        for img in [(-x, y, -z), (x, -y, -z), (-x, -y, z), (y, x, z)]:
            assert blachere_word_length(*img) == base


def test_blachere_agrees_with_bfs():
    table = bfs_ball(HeisenbergGroup(), 10)
    for key, d in table.lengths.items():
        closed = blachere_word_length(*key)
        if closed is not None:
            assert closed == d


def test_heis_word_length_paths():
    oracle = HeisWordOracle()
    assert oracle.word_length(HeisElem(0, 0, 16)) == (16, "formula")
    assert oracle.word_length(HeisElem(0, 0, 0)) == (0, "formula")
    assert oracle.word_length(HeisElem(2, 1, 2)) == (3, "oracle")
    oracle = HeisWordOracle(max_radius=6)
    with pytest.raises(OracleExhausted):
        oracle.word_length(HeisElem(5, 0, 17))


def test_oracle_matches_the_ball_and_the_closed_form():
    # every element of the radius-12 ball: the BFS length, on the path the
    # closed form decides
    oracle = HeisWordOracle()
    for key, d in bfs_ball(HeisenbergGroup(), 12).lengths.items():
        path = "oracle" if blachere_word_length(*key) is None else "formula"
        assert oracle.word_length(HeisElem(*key)) == (d, path)


def test_oracle_answers_lengths_at_its_own_radius():
    # a fallback element of length d is answered at max_radius = d and lies
    # beyond max_radius = d - 1, for odd and even d
    table = bfs_ball(HeisenbergGroup(), 8)
    tested = set()
    for d in range(2, 9):
        keys = sorted(k for k, r in table.lengths.items()
                      if r == d and blachere_word_length(*k) is None)
        at, below = HeisWordOracle(max_radius=d), HeisWordOracle(max_radius=d - 1)
        for key in random.Random(d).sample(keys, min(len(keys), 20)):
            assert at.word_length(HeisElem(*key)) == (d, "oracle")
            with pytest.raises(OracleExhausted):
                below.word_length(HeisElem(*key))
            tested.add(d)
    assert tested == set(range(2, 9))


ORACLE = HeisWordOracle()  # one ball across examples, as callers keep it


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.builds(HeisElem, st.integers(-6, 6), st.integers(-6, 6), st.integers(-80, 80)))
def test_oracle_matches_the_reference_search_property(g):
    reference = bfs_word_length(HeisenbergGroup(), g, ORACLE.max_radius)
    covered = blachere_word_length(g.x, g.y, g.z) is not None
    if reference is None and not covered:
        with pytest.raises(OracleExhausted):
            ORACLE.word_length(g)
        return
    value, path = ORACLE.word_length(g)
    assert path == ("formula" if covered else "oracle")
    assert value == reference if reference is not None else value > ORACLE.max_radius


ORACLE_GOLDEN = Path(__file__).parent / "golden" / "heis_oracle_answers.jsonl"


def test_oracle_answers_match_golden():
    # the 436 benchmark queries of seeds 1 and 1001, each seed asked of one
    # oracle in order, as answered by the per-query bidirectional search
    lines = [json.loads(line) for line in ORACLE_GOLDEN.read_text().splitlines()]
    assert len(lines) == 2 * 436
    oracles = {}
    for line in lines:
        oracle = oracles.setdefault(line["seed"], HeisWordOracle())
        assert oracle.word_length(HeisElem(*line["query"])) == (line["value"], line["path"])


def test_far_oracle_target_raises_before_the_ball_grows():
    # |x| + |y| = 41 > 40 bounds the length from below; the closed form
    # leaves (41, 0, 5) to the oracle
    oracle = HeisWordOracle()
    g = HeisElem(41, 0, 5)
    assert blachere_word_length(g.x, g.y, g.z) is None
    tracemalloc.start()
    try:
        with pytest.raises(OracleExhausted):
            oracle.word_length(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_swl_goldens():
    assert swl_heisenberg(HeisElem(1, 1, 7)) == 2
    assert swl_heisenberg(HeisElem(0, 0, 9)) == 0
    assert swl_heisenberg(HeisElem(-3, 2, 0)) == 5


def test_quadratic_length_goldens():
    assert quadratic_length(HeisElem(1, 3, 0)) == 9
    assert quadratic_length(HeisElem(0, 0, 1)) == 0
    assert quadratic_length(HeisElem(5, 10, 3)) == 20
    assert quadratic_length(HeisElem(1, 0, 0)) == 0
    assert quadratic_length(HeisElem(2, 3, 0)) == 0  # y not a multiple of x
    assert quadratic_length(HeisElem(1, -2, 0)) == 0  # negative slope maps to 0
    assert quadratic_length(HeisElem(-1, -4, 2)) == 16


def test_quadratic_vs_swl_separation():
    prev = Fraction(0)
    for n in range(1, 51):
        g = HeisElem(1, n, 0)
        ratio = Fraction(quadratic_length(g), swl_heisenberg(g))
        assert ratio == Fraction(n * n, n + 1)
        assert ratio > prev
        prev = ratio
        if n == 12:
            assert ratio > 10


def test_check_axioms_swl_and_quadratic():
    for factory in (swl_evaluator, quadratic_evaluator, zero_evaluator):
        report = check_axioms(factory(), sample_budget=1000, seed=7)
        assert report.all_passed, report.to_json_dict()
        assert report.tolerance == 0.0


def test_check_axioms_word_length_fails_homogeneity():
    report = check_axioms(word_length_evaluator(), sample_budget=1000, seed=7)
    assert not report.homogeneity.passed
    cx = report.homogeneity.counterexample
    assert cx is not None and "g" in cx and "n" in cx
    # the canonical witness: d(c) = 4 but d(c^2) = 6
    oracle = HeisWordOracle()
    assert oracle.word_length(HeisElem(0, 0, 1)).value == 4
    assert oracle.word_length(HeisElem(0, 0, 2)).value == 6
    # subadditivity on commuting pairs still holds for the word metric
    assert report.commuting_subadditivity.passed


def test_check_axioms_lattice_seminorm_invariance():
    sem = unit_eigen_seminorm(CONNER)
    report = check_axioms(sem, sample_budget=100, seed=3, twist=CONNER, tolerance=1e-9)
    assert report.conjugation_invariance.passed, report.conjugation_invariance
    assert report.homogeneity.passed
    assert report.commuting_subadditivity.passed


def test_check_axioms_lattice_dim_defaults_to_twist():
    # a 4x4 twist draws from Z^4, no twist from Z^2
    dims = set()
    l1 = LengthEvaluator(name="l1", domain="lattice", exact=True,
                         func=lambda v: dims.add(len(v)) or sum(map(abs, v)))
    check_axioms(l1, 50, seed=3, twist=CONNER)
    assert dims == {4}
    dims.clear()
    check_axioms(l1, 50, seed=3)
    assert dims == {2}


def test_stable_length_estimate_exact_case():
    est = stable_length_estimate(word_length_evaluator(), HeisElem(1, 1, 0), 20)
    assert [(k, v) for k, v, _ in est.samples] == [(k, 2 * k) for k in range(1, 21)]
    assert est.infimum == 2
    assert est.declared_limit == 2
    assert not est.subadditivity_violations
    assert not est.partial and not est.skipped


def test_stable_length_estimate_central():
    est = stable_length_estimate(word_length_evaluator(), HeisElem(0, 0, 1), 100)
    ratios = [r for _, _, r in est.samples]
    assert ratios[99] == Fraction(2, 5)  # 2*ceil(2*sqrt(100))/100
    assert est.infimum == Fraction(2, 5)
    assert est.declared_limit == 0  # swl vanishes on the center


def test_stable_length_estimate_identity():
    est = stable_length_estimate(word_length_evaluator(), HeisElem.identity(), 10)
    assert all(v == 0 for _, v, _ in est.samples)


def test_stable_length_running_infimum_monotone():
    rng = random.Random(10)
    L = word_length_evaluator()
    for _ in range(10):
        g = HeisElem(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        est = stable_length_estimate(L, g, 12)
        inf = est.running_infimum
        assert all(a >= b for a, b in zip(inf, inf[1:]))


def test_stable_length_estimate_partial_and_skipped():
    def flaky(g):
        if abs(g.x) >= 3:
            raise OracleExhausted("deep")
        return swl_heisenberg(g)

    L = LengthEvaluator("flaky", "heisenberg", flaky, True, stable_limit=swl_heisenberg)
    est = stable_length_estimate(L, HeisElem(1, 1, 0), 6)
    assert est.partial
    assert est.skipped == [3, 4, 5, 6]
    assert est.declared_limit is None

    closed = word_length_evaluator(closed_form_only=True)
    est = stable_length_estimate(closed, HeisElem(2, 0, 1), 6)
    assert est.skipped and not est.partial
    with pytest.raises(PreconditionError):
        stable_length_estimate(closed, HeisElem(1, 1, 0), 0)


def test_extend_rational():
    L = lattice_swl_evaluator()
    assert extend_rational(L, [3, -2]) == 5
    assert extend_rational(L, [Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)
    with pytest.raises(PreconditionError):
        extend_rational(swl_evaluator(), [1, 2])


def sturm_count_up_to(_, v):
    """Roots of 16x^2 - 16x + 3, at 1/4 and 3/4, in (-2, v_0]: 2 at 1, 1 at 1/2."""
    return sturm_count(IntPolynomial((3, -16, 16)), -2, v[0])


@pytest.mark.parametrize("apply", [LengthEvaluator.evaluate, extend_rational, sturm_count_up_to],
                         ids=["seminorm", "extend_rational", "sturm_count"])
def test_lattice_coordinates_are_integers_or_fractions(apply):
    # what operator.index takes, bool aside, or a Fraction; nothing is parsed or rounded
    sem = unit_eigen_seminorm(IntMatrix(((0, -1), (1, 0))))
    value = apply(sem, (1, 0))
    assert apply(sem, (np.int64(1), 0)) == apply(sem, (Fraction(2, 2), 0)) == value
    assert apply(sem, (Fraction(1, 2), 0)) == pytest.approx(value / 2)
    for bad in (True, 0.5, 1.0, "1", "1/3"):
        with pytest.raises(PreconditionError, match="integer or a Fraction"):
            apply(sem, (bad, 0))


def test_extend_rational_homogeneity():
    L = lattice_swl_evaluator()
    rng = random.Random(12)
    for _ in range(100):
        q = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert extend_rational(L, [r * x for x in q]) == abs(r) * extend_rational(L, q)


def test_sqrt_bound_witness():
    k, c, ok = sqrt_bound_witness(word_length_evaluator(), 10_000)
    assert (k, c, ok) == (4, 4, True)
    k, c, ok = sqrt_bound_witness(zero_evaluator(), 100)
    assert (k, c, ok) == (0, 2, True)
    oracle = HeisWordOracle()
    doubled = LengthEvaluator(
        "2d", "heisenberg", lambda g: 2 * oracle.word_length(g).value, True)
    k, c, ok = sqrt_bound_witness(doubled, 1000)
    assert (k, c, ok) == (8, 6, True)


def test_unit_eigen_seminorm_conner():
    sem = unit_eigen_seminorm(CONNER)
    assert not sem.exact
    for i in range(4):
        e_i = tuple(1 if j == i else 0 for j in range(4))
        assert sem.evaluate(e_i) > 1e-6
    rng = random.Random(14)
    for _ in range(100):
        v = tuple(rng.randint(-100, 100) for _ in range(4))
        assert abs(sem.evaluate(CONNER.apply(v)) - sem.evaluate(v)) < 1e-9


def test_unit_eigen_seminorm_identity():
    sem = unit_eigen_seminorm(IntMatrix.identity(2))
    assert sem.evaluate((1, 0)) == pytest.approx(1.0, abs=1e-12)
    assert sem.evaluate((3, 4)) == pytest.approx(5.0, abs=1e-9)
    assert sem.evaluate((Fraction(1, 2), 0)) == pytest.approx(0.5, abs=1e-12)


def test_unit_eigen_seminorm_errors():
    with pytest.raises(PreconditionError):
        unit_eigen_seminorm(HYPERBOLIC)  # no unit-circle eigenvalue
    with pytest.raises(NumericalDegeneracyError):
        unit_eigen_seminorm(JORDAN)  # defective eigenvalue 1


DEROGATORY = IntMatrix.from_rows([[1, 0, 0], [1, 1, 1], [0, 0, 1]])  # J_2(1) + (1)


def test_unit_eigen_seminorm_derogatory_unipotent():
    # eigenvalue 1 has a 2-dimensional eigenspace but is defective, so the
    # left/right eigenvector pairing is exactly singular
    p = IntMatrix.from_rows([[1, 1, 0], [0, 1, -1], [0, 0, 1]])
    for a in (DEROGATORY, p @ DEROGATORY @ p.inverse()):
        with pytest.raises(NumericalDegeneracyError):
            unit_eigen_seminorm(a)


def test_unit_eigen_seminorm_needs_no_root_finder(monkeypatch):
    # the eigenvalue is located by Sturm bisection and refined by exact
    # dyadic bisection, so a failing numeric root finder changes nothing
    before = [unit_eigen_seminorm(CONNER).evaluate(e_i) for e_i in unit_vectors(4)]

    def no_root_finder(*args, **kwargs):
        raise AssertionError("mpmath.polyroots was called")

    monkeypatch.setattr(mpmath, "polyroots", no_root_finder)
    after = [unit_eigen_seminorm(CONNER).evaluate(e_i) for e_i in unit_vectors(4)]
    assert after == before
    assert after == pytest.approx([0.5] * 4, abs=1e-12)


def test_unit_eigen_seminorm_rejects_bad_dps():
    for bad in (0, -3, True, 1.5):
        with pytest.raises(PreconditionError, match="dps"):
            unit_eigen_seminorm(CONNER, dps=bad)
        with pytest.raises(PreconditionError, match="dps"):
            unit_eigen_projector(CONNER, bad)


def test_domination_word_length():
    samples = [HeisElem(1, 1, 0), HeisElem(2, 1, 3), HeisElem(0, 0, 2), HeisElem(3, -2, 1)]
    report = stable_norm_domination_check(word_length_evaluator(), samples)
    assert report.precondition_ok
    assert report.max_generator_value == 1
    assert report.all_within
    # the (1,1,0) row attains the bound exactly in the limit
    row = next(r for r in report.rows if r.element == (1, 1, 0))
    assert row.infimum == 2 == row.bound


def test_domination_quadratic_precondition():
    report = stable_norm_domination_check(quadratic_evaluator(), [HeisElem(1, 2, 0)])
    assert not report.precondition_ok
    assert report.precondition_counterexample["property"] == "subadditivity"
    assert not report.all_within


def test_domination_zero():
    report = stable_norm_domination_check(zero_evaluator(), [HeisElem(1, 1, 0)])
    assert report.all_within


def test_closed_form_only_coverage_gap():
    L = word_length_evaluator(closed_form_only=True)
    assert L.evaluate(HeisElem(0, 0, 5)) == 2 * ceil_two_sqrt(5)
    with pytest.raises(CoverageGap):
        L.evaluate(HeisElem(2, 1, 2))


# -- spectral projector behind the seminorm --------------------------------

# x^4 - x^3 - x^2 - 1 = (x + 1)(x^3 - 2x^2 + x - 1): lambda = -1 with left
# eigenvector (1, -1, 1, -1), orthogonal to the all-ones vector
MINUS_ONE_QUARTIC = IntMatrix.from_rows(companion([-1, 0, -1, -1]))
LEHMER = IntMatrix.from_rows(companion([1, 1, 0, -1, -1, -1, -1, -1, 0, 1]))
ROTATION_PAIR = IntMatrix.from_rows(block_diag([[[0, -1], [1, 0]]] * 2))


def unit_vectors(n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def test_unit_eigen_seminorm_rank_one_scaling():
    # P = u w^T / (w^T u) has norm |u| |w| / |w^T u|, so |P e_i| / |P| = |w_i| / |w|
    sem = unit_eigen_seminorm(MINUS_ONE_QUARTIC)
    for e_i in unit_vectors(4):
        assert sem.evaluate(e_i) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("a", [CONNER, LEHMER, ROTATION_PAIR], ids=["conner", "lehmer", "rotations"])
@pytest.mark.parametrize("dps", [15, 30, 60])
def test_unit_eigen_projector_residuals_follow_dps(a, dps):
    lam, p = unit_eigen_projector(a, dps)
    bound = mpmath.mpf(10) ** (5 - dps)
    with mpmath.workdps(2 * dps):
        am = mpmath.matrix(a.rows)
        assert mpmath.mnorm(am * p - lam * p, 1) <= bound
        assert mpmath.mnorm(p * p - p, 1) <= bound
        assert abs(abs(lam) - 1) <= bound
    sem = unit_eigen_seminorm(a, dps=dps)
    assert all(sem.evaluate(e_i) > 1e-6 for e_i in unit_vectors(a.n))


@pytest.mark.parametrize("a", [CONNER, LEHMER, ROTATION_PAIR], ids=["conner", "lehmer", "rotations"])
@pytest.mark.parametrize("dps", [15, 30, 60])
def test_eigenline_projector_enclosure_is_dps_digits_wide(a, dps):
    # dps buys digits: the real and imaginary part of every entry of P's
    # enclosure, whose midpoints the seminorm takes, are at most
    # 10^-dps max |Re P_ij|, |Im P_ij| wide
    line = eigenline(a, dps)
    parts = [part for row in projector_enclosure(line) for z in row
             for part in (z.real, z.imag)]
    with mpmath.workprec(line.prec + 8):
        top = max(abs(mpmath.mpf(x.a) + mpmath.mpf(x.b)) / 2 for x in parts)
        assert top > 0.1
        assert all(mpmath.mpf(x.b) - mpmath.mpf(x.a) <= mpmath.mpf(10) ** -dps * top
                   for x in parts)


def test_outward_ints_round_the_eigenline_enclosure_outward_exactly():
    # floor and ceil of 2^prec times each end, exactly: the ends carry up to
    # prec bits, more than a float, so rounding at a lower precision would
    # move them inward
    line = eigenline(LEHMER)
    scale = 2 ** line.prec
    for z in (x for row in line.rows for x in row):
        for part in (z.real, z.imag):
            lo, hi = _outward_ints(part, line.prec)
            with mpmath.workprec(line.prec):
                a, b = (mpmath.mpf(e) for e in (part.a, part.b))
            a, b = ((-1) ** (e < 0) * Fraction(e.man) * Fraction(2) ** e.exp for e in (a, b))
            assert lo <= a * scale < lo + 1 and hi - 1 < b * scale <= hi


def test_unit_eigen_seminorm_repeated_unit_root():
    # (x^2 + 1)^2: lambda = i is a double root of the minimal polynomial
    with pytest.raises(NumericalDegeneracyError,
                       match="^defective eigenvalue: eigenline pairing singular$"):
        unit_eigen_seminorm(IntMatrix.from_rows(companion([1, 0, 2, 0])))
    # (x^2 + 1)^2 (x^2 + x + 1): lambda = omega (least x + 1/x) is simple,
    # although i is still defective
    a = IntMatrix.from_rows(companion([1, 1, 3, 2, 3, 1]))
    lam, p = unit_eigen_projector(a, 30)
    with mpmath.workdps(60):
        assert abs(lam - mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)) < 1e-25
        assert mpmath.mnorm(mpmath.matrix(a.rows) * p - lam * p, 1) < 1e-25
    sem = unit_eigen_seminorm(a)
    assert all(sem.evaluate(e_i) > 1e-6 for e_i in unit_vectors(6))


def test_unit_eigen_projector_least_half_trace_root_zero():
    # (x^2 + 1)(x^2 - x + 1): y = 0 (lam = i) is the least root of
    # q = y^2 - y, and its isolating interval (-1/4, 5/8] has no dyadic
    # midpoint at 0, so the refinement must find y0 = 0 exactly
    a = IntMatrix.from_rows(companion([1, -1, 2, -1]))
    lam, p = unit_eigen_projector(a, 30)
    assert lam == mpmath.mpc(0, 1)
    with mpmath.workdps(60):
        assert mpmath.mnorm(mpmath.matrix(a.rows) * p - lam * p, 1) < 1e-25


# blocks as (coefficients constant term first, leading 1 omitted)
UNIT_BLOCKS = [
    [-1], [1], [1, 1], [1, 0], [1, -1], [1, 1, 1, 1], [1, 0, 0, 0], [1, 0, -1, 0],
    [1, -1, -1, -1],  # Salem x^4 - x^3 - x^2 - x + 1
    [-1, 0, -1, -1],  # (x + 1)(x^3 - 2x^2 + x - 1)
    [1, -2], [1, 2], [1, 0, 2, 0], [1, 2, 3, 2],  # (x-1)^2, (x+1)^2, (x^2+1)^2, Phi_3^2
]
OTHER_BLOCKS = [[1, -3], [-1, -1], [-1, -1, 0]]


@st.composite
def unit_circle_twists(draw):
    """(P B P^-1, blocks) with B block-diagonal in companions, one of them
    with a unit-circle root, n <= 8."""
    blocks = [draw(st.sampled_from(UNIT_BLOCKS))]
    for block in draw(st.lists(st.sampled_from(UNIT_BLOCKS + OTHER_BLOCKS), max_size=4)):
        if sum(map(len, blocks)) + len(block) <= 8:
            blocks.append(block)
    b = IntMatrix.from_rows(block_diag([companion(c) for c in blocks]))
    p = draw(elementary_products(b.n, 4))
    return p @ b @ p.inverse(), blocks


def numpy_unit_eigenvalue(a):
    """1, else -1, else the unit-circle eigenvalue with least real part and
    positive imaginary part, from numpy eigenvalues."""
    unit = [z for z in np.linalg.eigvals(np.array(a.rows, dtype=float)) if abs(abs(z) - 1) < 1e-4]
    lam = next((complex(t) for t in (1, -1) if any(abs(z - t) < 1e-4 for z in unit)), None)
    return lam if lam is not None else min((z for z in unit if z.imag > 0), key=lambda z: z.real)


def numpy_seminorm(a, lam):
    """|P e_i| / |P|_2 with P from numpy left and right eigenvectors of lam."""
    m = np.array(a.rows, dtype=float)
    w, v = np.linalg.eig(m)
    wl, vl = np.linalg.eig(m.T)
    right = v[:, np.abs(w - lam) < 1e-4]
    left = vl[:, np.abs(wl - lam) < 1e-4]
    p = right @ np.linalg.inv(left.T @ right) @ left.T
    return [np.linalg.norm(p[:, i]) / np.linalg.norm(p, 2) for i in range(a.n)]


@PROPERTY_SETTINGS
@given(unit_circle_twists())
def test_unit_eigen_seminorm_matches_numpy_reference(case):
    a, blocks = case
    lam = numpy_unit_eigenvalue(a)
    # the minimal polynomial of a block-diagonal companion is the lcm of the blocks
    m = sympy.lcm_list([X ** len(c) + sum(ck * X ** k for k, ck in enumerate(c)) for c in blocks])
    _, factors = sympy.factor_list(m, X)
    _, exponent = min(factors, key=lambda fe: abs(complex(fe[0].subs(X, lam))))
    if exponent > 1:
        with pytest.raises(NumericalDegeneracyError, match="defective"):
            unit_eigen_seminorm(a)
        return
    sem = unit_eigen_seminorm(a)
    got = [sem.evaluate(e_i) for e_i in unit_vectors(a.n)]
    assert got == pytest.approx(numpy_seminorm(a, lam), abs=1e-8)


def test_check_axioms_rejects_bad_tolerance():
    for bad in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(PreconditionError):
            check_axioms(word_length_evaluator(), 50, bad, 7)
    assert check_axioms(lattice_swl_evaluator(), 50, 0.0, 7).all_passed


def test_check_axioms_rejects_bad_sample_budget():
    for bad in (0, -5):
        with pytest.raises(PreconditionError, match="sample_budget"):
            check_axioms(word_length_evaluator(), bad)
    assert check_axioms(lattice_swl_evaluator(), 1).samples == 1


@pytest.mark.parametrize("call, name, low", [
    (lambda x: stable_length_estimate(swl_evaluator(), HeisElem(1, 0, 1), x), "k_max", 0),
    (lambda x: check_axioms(swl_evaluator(), sample_budget=x), "sample_budget", 0),
    (lambda x: HeisWordOracle(max_radius=x), "max_radius", -1),
    (lambda x: HeisWordOracle(budget=x), "budget", 0),
    (lambda x: bfs_ball(HeisenbergGroup(), x), "radius", -1),
    (lambda x: bfs_ball(HeisenbergGroup(), 2, budget=x), "budget", 0),
    (lambda x: build_dossier(HYPERBOLIC, "estimates", max_radius=x), "max_radius", -1),
    (lambda x: build_dossier(HYPERBOLIC, "estimates", budget=x), "budget", 0),
], ids=["k_max", "sample_budget", "oracle-radius", "oracle-budget", "ball-radius",
        "ball-budget", "dossier-radius", "dossier-budget"])
@pytest.mark.parametrize("bad", [True, 2.5, "3", None], ids=["bool", "float", "str", "low"])
def test_integer_settings_are_checked(call, name, low, bad):
    # neither truncated, nor read as 1, nor passed on to a TypeError
    with pytest.raises(PreconditionError, match=name):
        call(low if bad is None else bad)


def pinned_report(homogeneity=None, conjugation=None, tolerance=0.0):
    """An AxiomReport.to_json_dict() of 1000 samples; None marks a passed axiom."""
    def verdict(cx):
        return {"passed": cx is None, "counterexample": cx}

    return {"homogeneity": verdict(homogeneity), "conjugation_invariance": verdict(conjugation),
            "commuting_subadditivity": verdict(None), "samples": 1000, "tolerance": tolerance}


def homogeneity_cx(g, n, lhs, rhs):
    return {"axiom": "homogeneity", "g": g, "n": n, "l(g^n)": lhs, "abs(n)*l(g)": rhs}


def conjugation_cx(g, h, lhs, rhs):
    return {"axiom": "conjugation", "g": g, "h": h, "l(hgh^-1)": lhs, "l(g)": rhs}


# Reports recorded with one draw per axiom and sample, in the order homogeneity,
# conjugation, subadditivity, skipping axioms that already failed: any other
# draw order changes the counterexamples.
PINNED_WORDLEN = {
    0: pinned_report(homogeneity_cx((-1, -1, 3), -2, 8, 12),
                     conjugation_cx((2, 1, 0), (0, 1, -1), 5, 3)),
    7: pinned_report(homogeneity_cx((1, 1, -3), -2, 8, 12),
                     conjugation_cx((-2, -2, 3), (2, -2, -1), 8, 4)),
    123456: pinned_report(homogeneity_cx((0, -2, 3), -2, 8, 12),
                          conjugation_cx((-2, -2, -3), (0, -2, -3), 10, 8)),
}
PINNED_HYPERBOLIC_SWL = {
    0: pinned_report(conjugation=conjugation_cx((-90, -34), "twist", 338, 124)),
    7: pinned_report(conjugation=conjugation_cx((66, -88), "twist", 66, 154)),
    123456: pinned_report(conjugation=conjugation_cx((-56, -100), "twist", 368, 156)),
}


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_check_axioms_reports_pinned(seed):
    for factory in (swl_evaluator, quadratic_evaluator, zero_evaluator):
        assert check_axioms(factory(), 1000, seed=seed).to_json_dict() == pinned_report()
    assert check_axioms(word_length_evaluator(), 1000, seed=seed).to_json_dict() \
        == PINNED_WORDLEN[seed]
    conner = check_axioms(unit_eigen_seminorm(CONNER), 1000, seed=seed, twist=CONNER)
    assert conner.to_json_dict() == pinned_report(tolerance=1e-9)
    # the l1 norm is not invariant under the hyperbolic twist
    twisted = check_axioms(lattice_swl_evaluator(), 1000, seed=seed, twist=HYPERBOLIC)
    assert twisted.to_json_dict() == PINNED_HYPERBOLIC_SWL[seed]


def test_check_axioms_skips_cases_the_evaluator_cannot_answer():
    closed = word_length_evaluator(closed_form_only=True)
    gaps = []

    def func(g):
        try:
            return closed.evaluate(g)
        except CoverageGap:
            gaps.append(g)
            raise

    report = check_axioms(LengthEvaluator("closed", "heisenberg", func, True), 1000, seed=7)
    assert gaps
    assert report.to_json_dict() == pinned_report(
        homogeneity_cx((0, 0, -3), -2, 10, 16), conjugation_cx((-1, 0, 3), (-1, 2, 1), 9, 7))


def test_budget_overruns_are_skipped_like_coverage_gaps():
    # at budget 50 the oracle's ball stops at radius 2, so the word length
    # of many sampled elements raises ResourceExhausted
    small = word_length_evaluator(budget=50)
    overruns = []

    def as_gap(g):
        try:
            return small.evaluate(g)
        except ResourceExhausted:
            overruns.append(g)
            raise CoverageGap(f"budget overrun at {g}")

    gapped = LengthEvaluator("gapped", "heisenberg", as_gap, True)
    assert check_axioms(small, 100) == check_axioms(gapped, 100)
    assert overruns
    del overruns[:]
    samples = [HeisElem(1, 1, 0), HeisElem(2, 1, 3)]
    report = stable_norm_domination_check(small, samples)
    assert report.precondition_ok and report.all_within
    assert report == stable_norm_domination_check(gapped, samples)
    assert overruns


def test_check_axioms_rejects_unsupported_domain():
    sdp = LengthEvaluator("sdp-wordlen", "sdp", lambda g: 0, True)
    with pytest.raises(PreconditionError, match="no sampler for domain 'sdp'"):
        check_axioms(sdp)


def test_stable_length_estimate_forms_each_power_by_one_product(monkeypatch):
    ctx = SdpContext(HYPERBOLIC)
    for g in (HeisElem(2, -1, 3), SdpElem((1, -2), 1, ctx)):
        asked = []
        L = LengthEvaluator("record", "any", lambda h: asked.append(h) or 0, True)
        products = []
        original = type(g).__mul__
        monkeypatch.setattr(type(g), "__mul__", lambda a, b: products.append(1) or original(a, b))
        stable_length_estimate(L, g, 9)
        monkeypatch.undo()
        assert asked == [g ** k for k in range(1, 10)]
        assert len(products) == 8  # g^k = g^(k-1) g


def test_eigen_functional_settles_the_derogatory_twist_in_integers():
    # m = (x - 1)^2: lam = 1 is defective, so the eigenline seminorm raises,
    # but rho = the row (1, 0, 1) of r(A) = A - I is exact and settles
    # |e_1^k| = |e_3^k| = k; rho_2 = 0 leaves e_2^k to the search
    a = DEROGATORY
    m = minimal_poly(a)
    assert unit_circle_root(m) == 1
    with pytest.raises(NumericalDegeneracyError):
        unit_eigen_seminorm(a)
    exceeds = _eigen_functional(_Eigenline(a, m, 1, 30))
    ctx = SdpContext(a)
    for k in range(1, 13):
        e1, e2, e3 = (SdpElem(tuple(k if j == i else 0 for j in range(3)), 0, ctx)
                      for i in range(3))
        assert exceeds(e1, k - 1) and exceeds(e3, k - 1) and not exceeds(e2, 0)
        assert not exceeds(e1, k)
