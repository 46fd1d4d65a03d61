"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criterion 4 is known to fail as stated: its envelope and exactness claims
do not hold for central and degenerate elements of the required range (see
the assertion message for the full failing set).  The test implements the
criterion faithfully and is expected red; the true convergence behaviour
it gestures at is covered by test_criterion_4_true_convergence_facts.
"""
import itertools
import time
from fractions import Fraction

import numpy as np

from lengrp.groups import HeisElem, HeisenbergGroup, bfs_ball
from lengrp.lengths import (
    blachere_word_length,
    central_power_word_length,
    check_axioms,
    quadratic_length,
    sqrt_bound_witness,
    stable_length_estimate,
    swl_heisenberg,
    unit_eigen_seminorm,
    word_length_evaluator,
)
from lengrp.matrices import IntMatrix, finite_order
from lengrp.polynomials import has_unit_circle_eigenvalue
from lengrp.spectral import classify_sdp

from exact_reference import char_poly, is_identity, torsion_order_candidates

CONNER = IntMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 2]])


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_matches_bfs_radius_12():
    start = time.monotonic()
    table = bfs_ball(HeisenbergGroup(), 12)
    mismatches = [
        (key, closed, d)
        for key, d in table.lengths.items()
        for closed in [blachere_word_length(*key)]
        if closed is not None and closed != d
    ]
    elapsed = time.monotonic() - start
    report(1, not mismatches and elapsed < 60,
           f"mismatches={mismatches[:5]}, elapsed={elapsed:.1f}s")


def test_criterion_2_central_growth_to_30():
    start = time.monotonic()
    table = bfs_ball(HeisenbergGroup(), 22)
    bad = [
        n for n in range(1, 31)
        if table.word_length((0, 0, n)) != central_power_word_length(n)
    ]
    elapsed = time.monotonic() - start
    report(2, not bad and elapsed < 300, f"bad n={bad}, elapsed={elapsed:.1f}s")


def test_criterion_3_sqrt_bound_to_10000():
    k, c, verified = sqrt_bound_witness(word_length_evaluator(), 10_000)
    report(3, (k, c) == (4, 4) and verified, f"K={k}, C={c}, verified={verified}")


def test_criterion_4_stable_length_envelope_as_stated():
    # For all |x|,|y| <= 3, |z| <= 4: running infimum at k_max = 20 within
    # 8/20 of |x|+|y|, and exact ratio at every k >= 2 when x >= y >= 0.
    L = word_length_evaluator(closed_form_only=True)
    envelope_failures, exactness_failures, uncovered = [], [], []
    for x, y, z in itertools.product(range(-3, 4), range(-3, 4), range(-4, 5)):
        g = HeisElem(x, y, z)
        est = stable_length_estimate(L, g, 20)
        s = abs(x) + abs(y)
        if est.infimum is None:
            uncovered.append((x, y, z))
            continue
        if abs(Fraction(est.infimum) - s) > Fraction(8, 20):
            envelope_failures.append(((x, y, z), float(est.infimum), s))
        if x >= y >= 0:
            for k, _, r in est.samples:
                if k >= 2 and r != s:
                    exactness_failures.append(((x, y, z), k, float(r), s))
                    break
    ok = not envelope_failures and not exactness_failures and not uncovered
    report(4, ok,
           f"{len(envelope_failures)} envelope failures (e.g. {envelope_failures[:3]}), "
           f"{len(exactness_failures)} exactness failures (e.g. {exactness_failures[:3]}), "
           f"{len(uncovered)} elements with no covered power at all "
           f"(e.g. {uncovered[:3]})")


def test_criterion_4_true_convergence_facts():
    # What does hold on that range: for xy != 0 the ratio reaches |x|+|y|
    # exactly by k = 20, and for every covered element the infimum never
    # drops below |x|+|y| minus the central correction 2*ceil(2*sqrt(.))/k.
    L = word_length_evaluator(closed_form_only=True)
    for x, y, z in itertools.product(range(-3, 4), range(-3, 4), range(-4, 5)):
        if x * y == 0:
            continue
        est = stable_length_estimate(L, HeisElem(x, y, z), 20)
        last = [r for k, _, r in est.samples if k == 20]
        assert last and last[0] == abs(x) + abs(y), (x, y, z, last)
        assert est.infimum == abs(x) + abs(y)
    # central elements converge to 0 like 2*ceil(2*sqrt(kz))/k, not to a
    # fixed envelope around |x|+|y| = 0 by k = 20
    est = stable_length_estimate(L, HeisElem(0, 0, 1), 20)
    assert est.infimum == Fraction(2 * 9, 20)  # 2*ceil(2*sqrt(20))/20


def test_criterion_5_classification_goldens():
    start = time.monotonic()
    conner = classify_sdp(CONNER)
    hyp = classify_sdp(IntMatrix.from_rows([[2, 1], [1, 1]]))
    rot = classify_sdp(IntMatrix.from_rows([[0, -1], [1, 0]]))
    elapsed = time.monotonic() - start
    ok = (
        conner.finite_order is None and conner.irreducible
        and conner.has_unit_circle_eigenvalue
        and conner.purely_positive_stable_word_length == "yes"
        and hyp.vanishes_on_lattice == "yes"
        and rot.finite_order == 4 and rot.admits_discrete_purely_positive
        and elapsed < 3.0
    )
    report(5, ok, f"conner={conner}, hyp={hyp}, rot={rot}, elapsed={elapsed:.2f}s")


def test_criterion_6_axiom_suites():
    from lengrp.lengths import quadratic_evaluator, swl_evaluator

    swl_ok = check_axioms(swl_evaluator(), 1000, seed=7).all_passed
    quad_ok = check_axioms(quadratic_evaluator(), 1000, seed=7).all_passed

    sem = unit_eigen_seminorm(CONNER)
    import random
    rng = random.Random(6)
    positivity = all(
        sem.evaluate(tuple(1 if j == i else 0 for j in range(4))) > 1e-6
        for i in range(4)
    )
    invariance = True
    for _ in range(100):
        v = tuple(rng.randint(-100, 100) for _ in range(4))
        if abs(sem.evaluate(CONNER.apply(v)) - sem.evaluate(v)) >= 1e-9:
            invariance = False
            break

    word_report = check_axioms(word_length_evaluator(), 1000, seed=7)
    witness = (
        not word_report.homogeneity.passed
        and word_length_evaluator().evaluate(HeisElem(0, 0, 1)) == 4
        and word_length_evaluator().evaluate(HeisElem(0, 0, 2)) == 6
    )
    ok = swl_ok and quad_ok and positivity and invariance and witness
    report(6, ok, f"swl={swl_ok}, quadratic={quad_ok}, positivity={positivity}, "
                  f"invariance={invariance}, homogeneity witness={witness}")


def test_criterion_7_quadratic_separation():
    ratios = [
        Fraction(quadratic_length(HeisElem(1, n, 0)),
                 swl_heisenberg(HeisElem(1, n, 0)))
        for n in range(1, 51)
    ]
    ok = (
        all(r == Fraction(n * n, n + 1) for n, r in enumerate(ratios, start=1))
        and all(a < b for a, b in zip(ratios, ratios[1:]))
        and ratios[11] > 10
    )
    report(7, ok, f"ratios[:13]={[str(r) for r in ratios[:13]]}")


def test_criterion_8_finite_order_cross_validation():
    family = [
        IntMatrix.from_rows([[a, b], [c, d]])
        for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
        if abs(a * d - b * c) == 1
    ]
    # brute-force beyond the candidate bound so the cross-check is independent
    bound = 4 * max(torsion_order_candidates(2))
    bad = []
    for m in family:
        brute = None
        p = m
        for k in range(1, bound + 1):
            if is_identity(p):
                brute = k
                break
            p = p @ m
        if finite_order(m) != brute:
            bad.append(("order", m.rows))
        exact = has_unit_circle_eigenvalue(char_poly(m))
        eig = np.linalg.eigvals(np.array(m.rows, dtype=float))
        if exact != any(abs(abs(lam) - 1) < 1e-9 for lam in eig):
            bad.append(("unit-circle", m.rows))
    report(8, len(family) == 104 and not bad,
           f"family={len(family)}, disagreements={bad[:5]}")
