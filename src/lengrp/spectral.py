"""Spectral classification of twist matrices for Z^n x|_A Z.

Decides, exactly, which length-function behaviour the matrix forces on the
semidirect product: finite order (virtually abelian), spectrum off the unit
circle (every length function dies on the lattice), or an irreducible twist
with a unit-circle eigenvalue (positive stable word length).
"""
from __future__ import annotations

from typing import Literal

from .errors import PreconditionError, _Frozen
from .matrices import IntMatrix, minimal_poly
from .polynomials import cyclotomic_order, is_irreducible, is_squarefree, unit_circle_root

TriState = Literal["yes", "no", "indeterminate"]


class SpectralReport(_Frozen):
    """Exact verdicts about a GL_n(Z) matrix viewed as a semidirect twist,
    and, outside the JSON, the minimal polynomial they were read from and
    the location ``unit_circle_root(minimal_poly)`` of a unit-circle
    eigenvalue, which a full dossier reuses: 1 or -1, or (q, u, v, k) with
    the eigenvalue's half-trace the only root of q in the integer dyadic
    (u/2^k, v/2^k], or None without one.
    ``purely_positive_stable_word_length`` and ``vanishes_on_lattice`` are
    TriState values: "yes", "no" or "indeterminate"."""

    __slots__ = ("finite_order", "diagonalizable", "irreducible",
                 "has_unit_circle_eigenvalue", "admits_discrete_purely_positive",
                 "purely_positive_stable_word_length", "vanishes_on_lattice",
                 "minimal_poly", "unit_circle_root")

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

    One exact spectral pass: every field is read off the minimal polynomial
    m, computed once.  Its roots are the eigenvalues, and a root's
    multiplicity is the size of its largest Jordan block.  So A has finite
    order iff m is a product of distinct cyclotomic polynomials, and is
    diagonalizable iff m is squarefree; the characteristic polynomial is
    irreducible iff it equals m (deg m = n) and m is irreducible.
    """
    if abs(a.det()) != 1:
        raise PreconditionError("classification needs |det A| = 1")
    mp = minimal_poly(a)
    order = cyclotomic_order(mp)
    diag = is_squarefree(mp)
    irr = mp.degree == a.n and is_irreducible(mp)
    root = unit_circle_root(mp)
    unit = root is not None

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
        minimal_poly=mp,
        unit_circle_root=root,
    )
