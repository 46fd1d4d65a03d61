import random

import pytest
from hypothesis import given

import lengrp
from lengrp.classify import (
    CLAIM_UNDECIDED,
    ClassificationDossier,
    _seminorm_table,
    build_dossier,
)
from lengrp.errors import PreconditionError
from lengrp.matrices import IntMatrix, minimal_poly

from test_lengths import (
    DEROGATORY,
    numpy_seminorm,
    numpy_unit_eigenvalue,
    unit_circle_twists,
)
from test_matrices import (
    CONNER,
    HYPERBOLIC,
    JORDAN,
    PROPERTY_SETTINGS,
    ROTATION,
    block_diag,
    random_glz,
)


def claims(dossier):
    return {(v.claim, v.lemma) for v in dossier.verdicts}


def test_identity_dossier():
    d = build_dossier(IntMatrix.identity(2))
    assert ("virtually abelian (A finite order)", "Lemma finite") in claims(d)
    assert d.evidence == {}


def test_conner_dossier_full():
    d = build_dossier(CONNER, "full", k_max=6, max_radius=10)
    assert ("purely positive (stable word length)", "Corollary") in claims(d)
    assert ("no discrete purely positive length function", "Lemma finite") in claims(d)
    sem = d.evidence["eigen_seminorm"]
    assert sem["all_positive"]
    assert set(sem["values"]) == {"e1", "e2", "e3", "e4"}
    assert "stable_length" in d.evidence


def test_hyperbolic_dossier_estimates():
    d = build_dossier(HYPERBOLIC, "estimates", k_max=20, max_radius=22,
                      budget=1_500_000)
    assert ("every length function vanishes on Z^2", "Lemma norm1") in claims(d)
    e1 = d.evidence["stable_length"]["e1"]
    inf = e1["running_infimum"]
    assert all(a >= b for a, b in zip(inf, inf[1:]))
    assert inf[-1] < 1.0  # the twist compresses e1^k below k by k = 20
    assert not e1["partial"]


def test_jordan_dossier_undecided_verbatim():
    d = build_dossier(JORDAN)
    assert (CLAIM_UNDECIDED, None) in claims(d)
    # the contrapositive is still reported
    assert ("no discrete purely positive length function", "Lemma finite") in claims(d)


def test_decided_verdicts_have_exactly_one_tag():
    for m in (CONNER, HYPERBOLIC, ROTATION, JORDAN, IntMatrix.identity(3)):
        for v in build_dossier(m).verdicts:
            if v.claim == CLAIM_UNDECIDED:
                assert v.lemma is None
            else:
                assert v.lemma in {"Lemma finite", "Lemma norm1",
                                   "Lemma stableword", "Corollary"}


def test_verdicts_independent_of_evidence_level():
    base = build_dossier(HYPERBOLIC, "none").verdicts
    est = build_dossier(HYPERBOLIC, "estimates", k_max=3, max_radius=6).verdicts
    assert [v.to_json_dict() for v in base] == [v.to_json_dict() for v in est]


def test_build_dossier_preconditions():
    with pytest.raises(PreconditionError):
        build_dossier(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        build_dossier(IntMatrix.identity(2), "everything")


def test_random_finite_order_family():
    rng = random.Random(21)
    bases = [
        ROTATION,
        IntMatrix.from_rows([[0, -1], [1, 1]]),
        IntMatrix.from_rows([[-1, 0], [0, -1]]),
        IntMatrix.from_rows([[0, 1], [1, 0]]),
    ]
    for _ in range(40):
        base = rng.choice(bases)
        u = random_glz(rng)
        d = build_dossier(u @ base @ u.inverse())
        assert ("virtually abelian (A finite order)", "Lemma finite") in claims(d)


def test_cyclotomic_companions():
    # single cyclotomic (x^4+x^3+x^2+x+1): irreducible, purely positive
    single = IntMatrix.from_rows([
        [0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    d = build_dossier(single)
    assert d.report.has_unit_circle_eigenvalue
    assert ("purely positive (stable word length)", "Corollary") in claims(d)
    # product of distinct cyclotomics (x^2+x+1)(x^2+1): reducible, undecided
    # companion of x^4 + x^3 + 2x^2 + x + 1
    product = IntMatrix.from_rows([
        [0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -1]])
    d = build_dossier(product)
    assert d.report.has_unit_circle_eigenvalue
    assert d.report.finite_order == 12
    assert not d.report.irreducible


def test_json_schema():
    d = build_dossier(ROTATION)
    payload = d.to_json_dict()
    assert set(payload) == {"matrix", "report", "verdicts", "evidence"}
    assert payload["matrix"] == [[0, -1], [1, 0]]
    assert all(set(v) == {"claim", "lemma"} for v in payload["verdicts"])


def test_derogatory_dossier_full_records_seminorm_error():
    p = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 2]])
    for a in (DEROGATORY, p @ DEROGATORY @ p.inverse()):
        d = build_dossier(a, "full", k_max=4, max_radius=8)
        assert d.report.finite_order is None and not d.report.diagonalizable
        assert "defective" in d.evidence["eigen_seminorm"]["error"]


def test_full_dossier_reads_one_minimal_polynomial(monkeypatch):
    calls = {"minimal_poly": 0, "char_poly": 0}
    for name in calls:
        original = getattr(lengrp.matrices, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (lengrp, lengrp.matrices, lengrp.spectral, lengrp.lengths,
                       lengrp.classify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    d = build_dossier(CONNER, "full", k_max=3, max_radius=6)
    assert d.evidence["eigen_seminorm"]["all_positive"]
    assert calls == {"minimal_poly": 1, "char_poly": 0}


def test_seminorm_all_positive_is_exact():
    # rotation + hyperbolic block: lam = i, and P kills the hyperbolic block
    a = IntMatrix.from_rows(block_diag([[[0, -1], [1, 0]], [[2, 1], [1, 1]]]))
    table = _seminorm_table(a, minimal_poly(a))
    assert not table["all_positive"]
    assert table["values"]["e1"] == pytest.approx(2 ** -0.5)
    assert table["values"]["e3"] < 1e-20 and table["values"]["e4"] < 1e-20
    # conjugated so that no unit vector lies in the hyperbolic block
    p = IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    b = p.inverse() @ a @ p
    assert _seminorm_table(b, minimal_poly(b))["all_positive"]


@PROPERTY_SETTINGS
@given(unit_circle_twists())
def test_seminorm_all_positive_matches_numpy_reference(case):
    a, _ = case
    table = _seminorm_table(a, minimal_poly(a))
    if "error" in table:  # defective eigenvalue
        return
    reference = numpy_seminorm(a, numpy_unit_eigenvalue(a))
    assert table["all_positive"] == all(v > 1e-8 for v in reference)


def test_estimates_beyond_max_radius_are_partial():
    # e_i^3 lies outside the radius-2 ball, so only k = 1, 2 are sampled
    d = build_dossier(HYPERBOLIC, "estimates", k_max=4, max_radius=2)
    for entry in d.evidence["stable_length"].values():
        assert entry["partial"] and entry["ks"] == [1, 2]


def test_full_dossier_without_unit_circle_eigenvalue_has_no_seminorm():
    d = build_dossier(HYPERBOLIC, "full", k_max=2, max_radius=4)
    assert d.evidence["eigen_seminorm"] is None
    assert not d.evidence["stable_length"]["e1"]["partial"]


# A conjugated finite-order twist with m = x^4 + x^2 + 1 whose projector kills
# e1 exactly; evaluating |P e1| in floating point reads about 4.5e-33.
FINITE_ORDER_KILLS_E1 = IntMatrix.from_rows(
    [[1, -1, 0, 0], [1, 0, 0, 0], [-1, -1, -1, -1], [0, 1, 1, 0]])


def test_seminorm_table_prints_exact_zeros():
    a = FINITE_ORDER_KILLS_E1
    table = _seminorm_table(a, minimal_poly(a))
    assert not table["all_positive"]
    assert table["values"]["e1"] == 0.0
    reference = numpy_seminorm(a, numpy_unit_eigenvalue(a))
    assert reference[0] < 1e-8
    for i in (2, 3, 4):
        assert table["values"][f"e{i}"] == pytest.approx(reference[i - 1], abs=1e-8) != 0.0


@PROPERTY_SETTINGS
@given(unit_circle_twists())
def test_seminorm_table_zero_exactly_where_projector_kills(case):
    a, _ = case
    table = _seminorm_table(a, minimal_poly(a))
    if "error" in table:  # defective eigenvalue
        return
    reference = numpy_seminorm(a, numpy_unit_eigenvalue(a))
    for value, ref in zip(table["values"].values(), reference):
        assert (value == 0.0) == (ref < 1e-8)
