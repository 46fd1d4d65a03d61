import copy
import inspect
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lengrp
from lengrp.classify import (
    CLAIM_UNDECIDED,
    ClassificationDossier,
    _sdp_length_evaluator,
    _seminorm_table,
    build_dossier,
)
from lengrp.cli import _budget
from lengrp.errors import OracleExhausted, PreconditionError
from lengrp.groups import SdpContext, SdpElem, SdpGroup, SharedBall, bfs_ball
from lengrp.lengths import _eigen_functional, _Eigenline
from lengrp.matrices import IntMatrix, minimal_poly
from lengrp.polynomials import unit_circle_root

from exact_reference import eigenline
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
    companion,
    elementary_products,
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


def test_build_dossier_budget_matches_cli(monkeypatch):
    monkeypatch.delenv("LENGRP_MEMORY_BUDGET", raising=False)
    default = inspect.signature(build_dossier).parameters["budget"].default
    assert default == _budget()


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
    # the characteristic polynomial is a test reference, not library code
    assert not hasattr(lengrp.matrices, "char_poly") and not hasattr(lengrp, "char_poly")
    calls = []
    original = lengrp.matrices.minimal_poly
    for module in (lengrp, lengrp.matrices, lengrp.spectral, lengrp.lengths, lengrp.classify):
        if getattr(module, "minimal_poly", None) is original:
            monkeypatch.setattr(module, "minimal_poly", lambda a: calls.append(a) or original(a))
    d = build_dossier(CONNER, "full", k_max=3, max_radius=6)
    assert d.evidence["eigen_seminorm"]["all_positive"]
    assert len(calls) == 1


def test_full_dossier_locates_the_unit_circle_root_once(monkeypatch):
    # the spectral report carries the root to one eigenline, which forms
    # the powers of A and r(A) once for the eigen-functional and the seminorm
    calls, lines = [], []
    original = lengrp.polynomials.unit_circle_root
    for module in (lengrp.polynomials, lengrp.spectral, lengrp.lengths, lengrp.classify):
        if getattr(module, "unit_circle_root", None) is original:
            monkeypatch.setattr(module, "unit_circle_root",
                                lambda m: calls.append(m) or original(m))
    built = lengrp.lengths._Eigenline.__init__
    monkeypatch.setattr(lengrp.lengths._Eigenline, "__init__",
                        lambda self, *args: lines.append(self) or built(self, *args))
    d = build_dossier(CONNER, "full", k_max=3, max_radius=6)
    assert d.evidence["eigen_seminorm"]["all_positive"]
    assert len(calls) == 1 and len(lines) == 1
    assert not hasattr(lengrp.lengths, "_matrix_powers")
    # no eigenline without a unit-circle root or without evidence
    build_dossier(HYPERBOLIC, "full", k_max=3, max_radius=6)
    build_dossier(CONNER, "none")
    assert len(lines) == 1


def test_seminorm_all_positive_is_exact():
    # rotation + hyperbolic block: lam = i, and P kills the hyperbolic block
    a = IntMatrix.from_rows(block_diag([[[0, -1], [1, 0]], [[2, 1], [1, 1]]]))
    table = _seminorm_table(a, eigenline(a))
    assert not table["all_positive"]
    assert table["values"]["e1"] == pytest.approx(2 ** -0.5)
    assert table["values"]["e3"] < 1e-20 and table["values"]["e4"] < 1e-20
    # conjugated so that no unit vector lies in the hyperbolic block
    p = IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    b = p.inverse() @ a @ p
    assert _seminorm_table(b, eigenline(b))["all_positive"]


@PROPERTY_SETTINGS
@given(unit_circle_twists())
def test_seminorm_all_positive_matches_numpy_reference(case):
    a, _ = case
    table = _seminorm_table(a, eigenline(a))
    if "error" in table:  # defective eigenvalue
        return
    reference = numpy_seminorm(a, numpy_unit_eigenvalue(a))
    assert table["all_positive"] == all(v > 1e-8 for v in reference)


def test_estimates_beyond_max_radius_are_partial():
    # e_i^3 lies outside the radius-2 ball, so only k = 1, 2 are sampled
    d = build_dossier(HYPERBOLIC, "estimates", k_max=4, max_radius=2)
    for entry in d.evidence["stable_length"].values():
        assert entry["partial"] and entry["ks"] == (1, 2)


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
    table = _seminorm_table(a, eigenline(a))
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
    table = _seminorm_table(a, eigenline(a))
    if "error" in table:  # defective eigenvalue
        return
    reference = numpy_seminorm(a, numpy_unit_eigenvalue(a))
    for value, ref in zip(table["values"].values(), reference):
        assert (value == 0.0) == (ref < 1e-8)


def test_conner_generator_powers_have_length_k():
    d = build_dossier(CONNER, "full")
    for entry in d.evidence["stable_length"].values():
        assert entry["ks"] == tuple(range(1, 13)) and not entry["partial"]
        # |e_i^k| / k = 1 for every k, so |e_i^k| = k exactly
        assert entry["ratios"] == entry["running_infimum"] == (1.0,) * 12


def test_equal_evidence_entries_are_one_read_only_object():
    d = build_dossier(CONNER, "estimates", k_max=4, max_radius=8)
    table = d.evidence["stable_length"]
    assert table["e1"] is table["e4"]  # |e_i^k| = k for every i
    for change in (lambda e: e.__setitem__("partial", True), lambda e: e.update(partial=True),
                   lambda e: e.pop("ks"), lambda e: e.clear()):
        with pytest.raises(TypeError):
            change(table["e1"])
    assert table["e4"] == {"ks": (1, 2, 3, 4), "ratios": (1.0,) * 4,
                           "running_infimum": (1.0,) * 4, "partial": False,
                           "trend_to_zero": False}
    assert pickle.loads(pickle.dumps(table)) == table == copy.deepcopy(table)
    # and so is an equal entry of another dossier
    assert build_dossier(CONNER, "estimates", k_max=4, max_radius=8) \
        .evidence["stable_length"]["e2"] is table["e1"]


def test_full_dossier_grows_one_shared_ball(monkeypatch):
    # the per-target bidirectional search is a test reference now
    assert not hasattr(lengrp.groups, "bfs_word_length")
    calls = {"_grow": 0}
    for name in calls:
        original = getattr(lengrp.groups, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (lengrp, lengrp.groups, lengrp.classify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    build_dossier(CONNER, "full", max_radius=12)
    assert calls["_grow"] == 0  # the eigen-functional settles every |e_i^k| = k


def test_small_budget_dossier_pinned():
    # the ball of [[2,1],[1,1]] holds 273 states at radius 4 and 663 at 5, so
    # budget 300 keeps radius 4: with sphere 4 scanned it excludes every
    # length <= 8, and the word e_i^9 gives 9; so e_i^k is answered up to
    # k = 9 = 2 * 4 + 1 and the rest read partial
    d = build_dossier(HYPERBOLIC, "estimates", budget=300)
    for entry in d.evidence["stable_length"].values():
        assert entry["ks"] == tuple(range(1, 10)) and entry["partial"]


# the full dossiers, at the default settings, of the 47 distinct twists that
# the sdp-evidence benchmark draws for seeds 1-10 and 1001, one JSON line each
DOSSIER_GOLDEN = Path(__file__).parent / "golden" / "sdp_evidence_full_dossiers.jsonl"


def golden_dossier_lines():
    return DOSSIER_GOLDEN.read_text().splitlines(keepends=True)


def test_full_dossiers_match_golden():
    lines = golden_dossier_lines()
    assert len(lines) == 47
    for line in lines:
        a = IntMatrix.from_rows(json.loads(line)["matrix"])
        assert json.dumps(build_dossier(a, "full").to_json_dict(), sort_keys=True) + "\n" == line


def test_settled_lengths_match_the_shared_ball():
    # every |e_i^k| the eigen-functional settles, as the full dossier asks
    # it, is the length the shared ball finds by search
    settled = {}
    for line in golden_dossier_lines():
        a = IntMatrix.from_rows(json.loads(line)["matrix"])
        m = minimal_poly(a)
        root = unit_circle_root(m)
        if root is None:
            continue
        exceeds = _eigen_functional(_Eigenline(a, m, root, 30))
        ctx = SdpContext(a)
        ball = SharedBall(SdpGroup(ctx), 12)
        count = 0
        for i in range(a.n):
            for k in range(1, 13):
                g = SdpElem(tuple(k if j == i else 0 for j in range(a.n)), 0, ctx)
                if exceeds(g, k - 1):
                    assert ball.word_length(g) == k
                    count += 1
        settled[a] = count
    assert settled[CONNER] == 48
    assert len(settled) == 29 and sum(settled.values()) >= 637


# twists with an eigenvalue of modulus one, conjugated below: rotations of
# order 3, 4 and 6 (complex lam), +-1 simple and defective, and at n = 3
# unipotent, derogatory, and +-1 beside a hyperbolic pair, with m
# palindromic or not
FUNCTIONAL_BLOCKS = [
    companion([1, 0]), companion([1, 1]), companion([1, -1]), [[1, 1], [0, 1]],
    [[-1, 1], [0, -1]], [[-1, 0], [0, 1]], [[1, 0], [0, 1]],
    [[1, 0, 0], [1, 1, 1], [0, 0, 1]], companion([-1, 3, -3]), companion([-1, 4, -4]),
    companion([1, 0, -2]), companion([-1, -2, 0]), companion([1, 1, 1]), companion([-1, 0, 0]),
]


@pytest.mark.parametrize("block", FUNCTIONAL_BLOCKS)
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_eigen_functional_bounds_and_settles_word_lengths(block, data):
    # on the whole ball of radius 4: phi(g) <= |g| (exceeds(g, |g|) never
    # holds), phi settles some lengths, and the dossier's evaluator, which
    # settles what phi allows and searches the rest, answers every length
    p = data.draw(elementary_products(len(block), 3))
    a = p @ IntMatrix.from_rows(block) @ p.inverse()
    m = minimal_poly(a)
    exceeds = _eigen_functional(_Eigenline(a, m, unit_circle_root(m), 30))
    ctx = SdpContext(a)
    table = bfs_ball(SdpGroup(ctx), 4)
    lengths = [_sdp_length_evaluator(ctx, r, 10 ** 5, exceeds) for r in (3, 4)]
    settled = 0
    for key, d in table.lengths.items():
        g = table.group.elem_of(key)
        assert not exceeds(g, d)
        settled += exceeds(g, d - 1) and any(g.v)
        assert lengths[1].evaluate(g) == d
        if d == 4:
            with pytest.raises(OracleExhausted):
                lengths[0].evaluate(g)
        else:
            assert lengths[0].evaluate(g) == d
    assert settled
