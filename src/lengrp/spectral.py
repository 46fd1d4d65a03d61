"""Spectral classification of twist matrices for Z^n x|_A Z.

Decides, exactly, which length-function behaviour the matrix forces on the
semidirect product: finite order (virtually abelian), spectrum off the unit
circle (every length function dies on the lattice), or an irreducible twist
with a unit-circle eigenvalue (positive stable word length).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from .errors import PreconditionError
from .matrices import IntMatrix, char_poly, minimal_poly
from .polynomials import (
    cyclotomic_order,
    has_unit_circle_eigenvalue,
    is_irreducible,
    is_squarefree,
)

TriState = Literal["yes", "no", "indeterminate"]


@dataclass(frozen=True)
class SpectralReport:
    """Exact verdicts about a GL_n(Z) matrix viewed as a semidirect twist."""

    finite_order: Optional[int]
    diagonalizable: bool
    irreducible: bool
    has_unit_circle_eigenvalue: bool
    admits_discrete_purely_positive: bool
    purely_positive_stable_word_length: TriState
    vanishes_on_lattice: TriState

    def to_json_dict(self) -> dict:
        return {
            "finite_order": self.finite_order,
            "diagonalizable": self.diagonalizable,
            "irreducible": self.irreducible,
            "has_unit_circle_eigenvalue": self.has_unit_circle_eigenvalue,
            "admits_discrete_purely_positive": self.admits_discrete_purely_positive,
            "purely_positive_stable_word_length": self.purely_positive_stable_word_length,
            "vanishes_on_lattice": self.vanishes_on_lattice,
        }


def classify_sdp(a: IntMatrix) -> SpectralReport:
    """Populate a SpectralReport for A in GL_n(Z).

    Tri-state fields stay "indeterminate" exactly where none of the
    implemented criteria applies (e.g. a reducible twist with unit-circle
    spectrum).

    One exact spectral pass: every field comes from the characteristic and
    the minimal polynomial, each computed once.
    """
    if abs(a.det()) != 1:
        raise PreconditionError("classification needs |det A| = 1")
    cp = char_poly(a)
    mp = minimal_poly(a)
    order = cyclotomic_order(mp)
    diag = is_squarefree(mp)
    irr = is_irreducible(cp)
    unit = has_unit_circle_eigenvalue(cp)

    if irr:
        ppswl: TriState = "yes" if unit else "no"
    elif diag and not unit:
        ppswl = "no"  # every length function vanishes on the lattice
    else:
        ppswl = "indeterminate"

    if diag and not unit:
        vanishes: TriState = "yes"
    elif order is not None or (irr and unit):
        # some length function is positive on the lattice
        vanishes = "no"
    else:
        vanishes = "indeterminate"

    return SpectralReport(
        finite_order=order,
        diagonalizable=diag,
        irreducible=irr,
        has_unit_circle_eigenvalue=unit,
        admits_discrete_purely_positive=order is not None,
        purely_positive_stable_word_length=ppswl,
        vanishes_on_lattice=vanishes,
    )
