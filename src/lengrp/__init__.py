"""Exact-arithmetic toolkit for length functions on the discrete
Heisenberg group and semidirect products Z^n x|_A Z.

The names below load on first access (PEP 562): ``import lengrp`` loads
no submodule, and ``lengrp.build_dossier`` or ``from lengrp import
build_dossier`` loads the module that defines it, with what that module
imports.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    "AxiomReport": "lengths",
    "BallTable": "groups",
    "ClassificationDossier": "classify",
    "CoverageGap": "lengths",
    "HeisElem": "groups",
    "HeisWordOracle": "lengths",
    "HeisenbergGroup": "groups",
    "IntMatrix": "matrices",
    "IntPolynomial": "polynomials",
    "LengrpError": "errors",
    "LengthEvaluator": "lengths",
    "NumericalDegeneracyError": "errors",
    "OracleExhausted": "errors",
    "PreconditionError": "errors",
    "ResourceExhausted": "errors",
    "SdpContext": "groups",
    "SdpElem": "groups",
    "SdpGroup": "groups",
    "SpectralReport": "spectral",
    "StableLengthEstimate": "lengths",
    "bfs_ball": "groups",
    "blachere_word_length": "lengths",
    "build_dossier": "classify",
    "ceil_two_sqrt": "lengths",
    "central_power_word_length": "lengths",
    "check_axioms": "lengths",
    "classify_sdp": "spectral",
    "cyclotomic_order": "polynomials",
    "extend_rational": "lengths",
    "finite_order": "matrices",
    "half_trace_transform": "polynomials",
    "has_unit_circle_eigenvalue": "polynomials",
    "is_irreducible": "polynomials",
    "is_squarefree": "polynomials",
    "minimal_poly": "matrices",
    "parse_heis": "groups",
    "quadratic_evaluator": "lengths",
    "quadratic_length": "lengths",
    "self_reciprocal_part": "polynomials",
    "sqrt_bound_witness": "lengths",
    "squarefree_part": "polynomials",
    "stable_length_estimate": "lengths",
    "stable_norm_domination_check": "lengths",
    "sturm_count": "polynomials",
    "swl_evaluator": "lengths",
    "swl_heisenberg": "lengths",
    "unit_eigen_seminorm": "lengths",
    "word_length_evaluator": "lengths",
    "zero_evaluator": "lengths",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later look-ups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
