import random
from fractions import Fraction

import pytest

from lengrp.errors import (
    NumericalDegeneracyError,
    OracleExhausted,
    PreconditionError,
)
from lengrp.groups import HeisElem, HeisenbergGroup, bfs_ball
from lengrp.lengths import (
    CoverageGap,
    HeisWordOracle,
    LengthEvaluator,
    blachere_word_length,
    ceil_two_sqrt,
    central_power_word_length,
    check_axioms,
    extend_rational,
    heis_word_length,
    lattice_swl_evaluator,
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
from lengrp.matrices import IntMatrix

from test_matrices import CONNER, HYPERBOLIC, JORDAN


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
    assert heis_word_length(0, 0, 16) == (16, "formula")
    assert heis_word_length(0, 0, 0) == (0, "formula")
    assert heis_word_length(2, 1, 2) == (3, "oracle")
    oracle = HeisWordOracle(ball_radius=4, max_radius=6)
    with pytest.raises(OracleExhausted):
        oracle.word_length(HeisElem(5, 0, 17))


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
    assert heis_word_length(0, 0, 1).value == 4
    assert heis_word_length(0, 0, 2).value == 6
    # subadditivity on commuting pairs still holds for the word metric
    assert report.commuting_subadditivity.passed


def test_check_axioms_lattice_seminorm_invariance():
    sem = unit_eigen_seminorm(CONNER)
    report = check_axioms(sem, sample_budget=100, seed=3, lattice_dim=4,
                          twist=CONNER, tolerance=1e-9)
    assert report.conjugation_invariance.passed, report.conjugation_invariance
    assert report.homogeneity.passed
    assert report.commuting_subadditivity.passed


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
    doubled = LengthEvaluator(
        "2d", "heisenberg", lambda g: 2 * heis_word_length(g.x, g.y, g.z).value, True)
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


def test_unit_eigen_seminorm_root_finder_failure(monkeypatch):
    import mpmath
    from mpmath.libmp import NoConvergence

    def no_convergence(*args, **kwargs):
        raise NoConvergence("polyroots did not converge")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    with pytest.raises(NumericalDegeneracyError):
        unit_eigen_seminorm(CONNER)


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
