"""The value classes behave as the dataclasses of the same fields would:
a constructor that takes each field once, by position or by name,
equality field by field within one class, the hash of the field tuple for
the immutable ones and none for the mutable ones, ``Name(field=value)``
reprs, and AttributeError on assignment to an immutable one."""
import copy
import pickle
from fractions import Fraction

import pytest

from lengrp.classify import ClassificationDossier, Verdict
from lengrp.groups import BallTable, HeisElem, HeisenbergGroup, SdpContext, SdpElem
from lengrp.lengths import (
    AxiomReport,
    AxiomVerdict,
    DominationReport,
    DominationRow,
    LengthEvaluator,
    StableLengthEstimate,
    swl_heisenberg,
)
from lengrp.matrices import IntMatrix
from lengrp.polynomials import IntPolynomial
from lengrp.spectral import SpectralReport, classify_sdp

MATRIX = IntMatrix(((2, 1), (1, 1)))
CTX = SdpContext(MATRIX)
GROUP = HeisenbergGroup()
REPORT = classify_sdp(MATRIX)
REPORT_TEXT = (
    "SpectralReport(finite_order=None, diagonalizable=True, irreducible=True, "
    "has_unit_circle_eigenvalue=False, admits_discrete_purely_positive=False, "
    "purely_positive_stable_word_length='no', vanishes_on_lattice='yes', "
    "minimal_poly=IntPolynomial(coeffs=(1, -3, 1)), unit_circle_root=None)")
PASSED = AxiomVerdict(True)
PASSED_TEXT = "AxiomVerdict(passed=True, counterexample=None)"
FROZEN = (HeisElem, SdpElem, IntMatrix, IntPolynomial, SpectralReport, Verdict)

# (class, fields by name in constructor order, the dataclass repr)
CASES = [
    (HeisElem, {"x": 3, "y": -3, "z": 200}, "HeisElem(x=3, y=-3, z=200)"),
    (SdpElem, {"v": (1, 0), "t": 2, "ctx": CTX}, f"SdpElem(v=(1, 0), t=2, ctx={CTX!r})"),
    (BallTable, {"radius": 1, "lengths": {(0, 0, 0): 0}, "sphere_sizes": [1], "group": GROUP},
     f"BallTable(radius=1, lengths={{(0, 0, 0): 0}}, sphere_sizes=[1], group={GROUP!r})"),
    (LengthEvaluator,
     {"name": "swl", "domain": "heisenberg", "func": swl_heisenberg, "exact": True,
      "stable_limit": None},
     f"LengthEvaluator(name='swl', domain='heisenberg', func={swl_heisenberg!r}, "
     "exact=True, stable_limit=None)"),
    (StableLengthEstimate,
     {"element": HeisElem(1, 1, 0), "samples": [(1, 2, Fraction(2))],
      "running_infimum": [Fraction(2)], "skipped": [], "partial": False,
      "declared_limit": 2, "subadditivity_violations": []},
     "StableLengthEstimate(element=HeisElem(x=1, y=1, z=0), "
     "samples=[(1, 2, Fraction(2, 1))], running_infimum=[Fraction(2, 1)], skipped=[], "
     "partial=False, declared_limit=2, subadditivity_violations=[])"),
    (AxiomVerdict, {"passed": False, "counterexample": {"axiom": "homogeneity"}},
     "AxiomVerdict(passed=False, counterexample={'axiom': 'homogeneity'})"),
    (AxiomReport,
     {"homogeneity": PASSED, "conjugation_invariance": PASSED,
      "commuting_subadditivity": PASSED, "samples": 10, "tolerance": 0.0},
     f"AxiomReport(homogeneity={PASSED_TEXT}, conjugation_invariance={PASSED_TEXT}, "
     f"commuting_subadditivity={PASSED_TEXT}, samples=10, tolerance=0.0)"),
    (DominationRow,
     {"element": (1, 1, 0), "infimum": Fraction(2), "bound": Fraction(2),
      "slack": Fraction(0), "within": True},
     "DominationRow(element=(1, 1, 0), infimum=Fraction(2, 1), bound=Fraction(2, 1), "
     "slack=Fraction(0, 1), within=True)"),
    (DominationReport,
     {"precondition_ok": True, "precondition_counterexample": None,
      "max_generator_value": Fraction(1), "rows": []},
     "DominationReport(precondition_ok=True, precondition_counterexample=None, "
     "max_generator_value=Fraction(1, 1), rows=[])"),
    (IntMatrix, {"rows": ((2, 1), (1, 1))}, "IntMatrix(rows=((2, 1), (1, 1)))"),
    (IntPolynomial, {"coeffs": (1, 0, 1)}, "IntPolynomial(coeffs=(1, 0, 1))"),
    (SpectralReport, {name: getattr(REPORT, name) for name in SpectralReport.__slots__},
     REPORT_TEXT),
    (Verdict, {"claim": "virtually abelian (A finite order)", "lemma": "Lemma finite"},
     "Verdict(claim='virtually abelian (A finite order)', lemma='Lemma finite')"),
    (ClassificationDossier,
     {"matrix": MATRIX, "report": REPORT, "verdicts": [], "evidence": {}},
     f"ClassificationDossier(matrix=IntMatrix(rows=((2, 1), (1, 1))), report={REPORT_TEXT}, "
     "verdicts=[], evidence={})"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_keeps_its_dataclass_behaviour(cls, fields, text):
    obj = cls(**fields)
    values = tuple(fields.values())
    assert tuple(getattr(obj, name) for name in fields) == values
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj != values  # another class compares unequal, as with dataclasses
    assert repr(obj) == text
    assert not hasattr(obj, "__dict__")  # slots: no instance dict
    first = next(iter(fields))
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, None)  # one value too many
    with pytest.raises(TypeError, match=cls.__name__):
        cls(**fields, no_such_field=None)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, **{first: values[0]})  # by position and by name
    for name in fields.keys() - cls._defaults.keys():
        with pytest.raises(TypeError, match=cls.__name__):
            cls(**{k: v for k, v in fields.items() if k != name})
    if cls in FROZEN:
        assert hash(obj) == hash(cls(*values)) == hash(values)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(obj, first, fields[first])
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(obj, first)
        assert pickle.loads(pickle.dumps(obj)) == obj == copy.copy(obj) == copy.deepcopy(obj)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        setattr(obj, first, None)
        assert getattr(obj, first) is None and obj != cls(*values)


def test_value_classes_compare_every_field():
    assert HeisElem(1, 2, 3) != HeisElem(1, 2, 4)
    assert Verdict("c", None) != Verdict("c", "Lemma finite")
    assert AxiomVerdict(True) != AxiomVerdict(True, {})


def test_mutable_defaults_are_new_per_instance():
    a, b = StableLengthEstimate(None, [], []), StableLengthEstimate(None, [], [])
    assert a.skipped == a.subadditivity_violations == [] and a.skipped is not b.skipped
    assert a.subadditivity_violations is not b.subadditivity_violations
    assert (a.partial, a.declared_limit) == (False, None)
    d1, d2 = ClassificationDossier(MATRIX, REPORT, []), ClassificationDossier(MATRIX, REPORT, [])
    assert d1.evidence == {} and d1.evidence is not d2.evidence
    assert AxiomVerdict(True).counterexample is None
    assert LengthEvaluator("zero", "heisenberg", abs, True).stable_limit is None
