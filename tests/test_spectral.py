import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lengrp.errors import PreconditionError
from lengrp.matrices import IntMatrix
from lengrp.polynomials import has_unit_circle_eigenvalue, is_irreducible
from lengrp.spectral import classify_sdp

from exact_reference import char_poly
from test_matrices import (
    CONNER,
    HYPERBOLIC,
    JORDAN,
    PROPERTY_SETTINGS,
    ROTATION,
    block_diag,
    companion,
    elementary_products,
    radical_annihilates,
    random_glz,
)


def test_conner_golden():
    report = classify_sdp(CONNER)
    assert report.finite_order is None
    assert report.diagonalizable
    assert report.irreducible
    assert report.has_unit_circle_eigenvalue
    assert not report.admits_discrete_purely_positive
    assert report.purely_positive_stable_word_length == "yes"
    assert report.vanishes_on_lattice == "no"


def test_hyperbolic_golden():
    report = classify_sdp(HYPERBOLIC)
    assert report.finite_order is None
    assert not report.has_unit_circle_eigenvalue
    assert report.purely_positive_stable_word_length == "no"
    assert report.vanishes_on_lattice == "yes"


def test_rotation_golden():
    report = classify_sdp(ROTATION)
    assert report.finite_order == 4
    assert report.admits_discrete_purely_positive
    assert report.purely_positive_stable_word_length == "yes"
    assert report.vanishes_on_lattice == "no"


def test_jordan_block_indeterminate():
    report = classify_sdp(JORDAN)
    assert report.finite_order is None
    assert not report.diagonalizable
    assert not report.irreducible
    assert report.has_unit_circle_eigenvalue
    assert report.purely_positive_stable_word_length == "indeterminate"
    assert report.vanishes_on_lattice == "indeterminate"


def test_reducible_mixed_spectrum_indeterminate():
    # block diagonal: hyperbolic block plus a rotation block
    a = IntMatrix.from_rows([
        [2, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    report = classify_sdp(a)
    assert report.finite_order is None
    assert not report.irreducible
    assert report.has_unit_circle_eigenvalue
    assert report.purely_positive_stable_word_length == "indeterminate"
    assert report.vanishes_on_lattice == "indeterminate"


def test_cyclotomic_companion():
    # companion of 1 + x + x^2 + x^3 + x^4: multiplication by a 5th root of unity
    comp = IntMatrix.from_rows([
        [0, 0, 0, -1],
        [1, 0, 0, -1],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
    ])
    report = classify_sdp(comp)
    assert report.finite_order == 5
    assert report.irreducible
    assert report.has_unit_circle_eigenvalue
    assert report.purely_positive_stable_word_length == "yes"
    assert report.vanishes_on_lattice == "no"


def test_determinant_precondition():
    with pytest.raises(PreconditionError):
        classify_sdp(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_verdicts_invariant_under_conjugation():
    rng = random.Random(13)
    for base in (CONNER, HYPERBOLIC, ROTATION):
        expected = classify_sdp(base).to_json_dict()
        for _ in range(5):
            u = random_glz(rng, n=base.n)
            conj = u @ base @ u.inverse()
            assert classify_sdp(conj).to_json_dict() == expected


def test_json_shape():
    d = classify_sdp(ROTATION).to_json_dict()
    assert set(d) == {
        "finite_order", "diagonalizable", "irreducible",
        "has_unit_circle_eigenvalue", "admits_discrete_purely_positive",
        "purely_positive_stable_word_length", "vanishes_on_lattice",
    }


# companion blocks (coefficients constant term first, leading 1 omitted):
# +-1, Phi_3, Phi_4, Phi_6, Phi_5, Conner, the Salem quartic, and three
# without a unit-circle root
SPECTRAL_BLOCKS = [
    [-1], [1], [1, 1], [1, 0], [1, -1], [1, 1, 1, 1], [1, -2, 1, -2], [1, -1, -1, -1],
    [1, -3], [-1, -1], [-1, -1, 0],
]


@st.composite
def repeated_block_twists(draw):
    """P B P^-1 with B block-diagonal in companions, one block twice, so the
    minimal polynomial has degree < n; n <= 8."""
    twice = draw(st.sampled_from(SPECTRAL_BLOCKS))
    blocks = [twice, twice]
    for block in draw(st.lists(st.sampled_from(SPECTRAL_BLOCKS), max_size=3)):
        if sum(map(len, blocks)) + len(block) <= 8:
            blocks.append(block)
    blocks = draw(st.permutations(blocks))
    b = IntMatrix.from_rows(block_diag([companion(c) for c in blocks]))
    p = draw(elementary_products(b.n, 4))
    return p @ b @ p.inverse()


@PROPERTY_SETTINGS
@given(repeated_block_twists())
def test_report_from_minimal_polynomial_matches_characteristic(a):
    report, cp = classify_sdp(a), char_poly(a)
    assert report.minimal_poly.degree < a.n
    assert report.irreducible == is_irreducible(cp)
    assert report.has_unit_circle_eigenvalue == has_unit_circle_eigenvalue(cp)
    assert report.diagonalizable == radical_annihilates(a)
