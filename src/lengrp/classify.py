"""Human-readable classification dossiers for G = Z^n x|_A Z.

Wraps the exact spectral verdicts in claim strings with their citation
tags, and optionally attaches experimental corroboration: BFS stable-length
ratios for the lattice generators and the eigenline seminorm table.  The
tag strings below are part of the stable output schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import NumericalDegeneracyError, OracleExhausted, PreconditionError
from .groups import SdpContext, SdpElem, SdpGroup, bfs_word_length
from .lengths import LengthEvaluator, _eigenline_seminorm, stable_length_estimate
from .matrices import IntMatrix, _annihilator_of_vector
from .polynomials import IntPolynomial, vanishes_at
from .spectral import SpectralReport, classify_sdp

TAG_FINITE = "Lemma finite"
TAG_NORM1 = "Lemma norm1"
TAG_STABLEWORD = "Lemma stableword"
TAG_COROLLARY = "Corollary"
CLAIM_UNDECIDED = "not decided by this paper's lemmas"

EVIDENCE_LEVELS = ("none", "estimates", "full")
# a running infimum below this counts as a trend toward 0 (non-normative)
TREND_THRESHOLD = 0.5


@dataclass(frozen=True, slots=True)
class Verdict:
    claim: str
    lemma: Optional[str]  # exactly one tag for decided claims, None otherwise

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "lemma": self.lemma}


@dataclass(slots=True)
class ClassificationDossier:
    matrix: IntMatrix
    report: SpectralReport
    verdicts: list[Verdict]
    evidence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "matrix": [list(row) for row in self.matrix.rows],
            "report": self.report.to_json_dict(),
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "evidence": self.evidence,
        }


@lru_cache(maxsize=None)
def _verdict(claim: str, lemma: Optional[str]) -> Verdict:
    """Verdicts are immutable, so dossiers share one per claim."""
    return Verdict(claim, lemma)


def _verdicts_from_report(report: SpectralReport, n: int) -> list[Verdict]:
    out: list[Verdict] = []
    if report.finite_order is not None:
        out.append(_verdict("virtually abelian (A finite order)", TAG_FINITE))
    else:
        out.append(_verdict("no discrete purely positive length function", TAG_FINITE))
    if report.purely_positive_stable_word_length == "yes":
        out.append(_verdict("purely positive (stable word length)", TAG_COROLLARY))
        out.append(_verdict(
            "a conjugation-invariant seminorm is positive on the lattice",
            TAG_STABLEWORD,
        ))
    if report.vanishes_on_lattice == "yes":
        out.append(_verdict(f"every length function vanishes on Z^{n}", TAG_NORM1))
    if ("indeterminate" in (report.purely_positive_stable_word_length,
                            report.vanishes_on_lattice)):
        out.append(_verdict(CLAIM_UNDECIDED, None))
    return out


def _sdp_length_evaluator(ctx: SdpContext, max_radius: int, budget: int) -> LengthEvaluator:
    group = SdpGroup(ctx)

    def func(g: SdpElem) -> int:
        value = bfs_word_length(group, g, max_radius, budget)
        if value is None:
            raise OracleExhausted(f"radius {max_radius} insufficient for {g.key}")
        return value

    return LengthEvaluator(name="sdp-wordlen", domain="sdp", func=func, exact=True)


def _generator_estimates(a: IntMatrix, k_max: int, max_radius: int, budget: int) -> dict:
    ctx = SdpContext(a)
    length = _sdp_length_evaluator(ctx, max_radius, budget)
    table = {}
    for i in range(a.n):
        e_i = SdpElem(tuple(1 if j == i else 0 for j in range(a.n)), 0, ctx)
        est = stable_length_estimate(length, e_i, k_max)
        inf = est.infimum
        table[f"e{i + 1}"] = {
            "ks": [k for k, _, _ in est.samples],
            "ratios": [float(r) for _, _, r in est.samples],
            "running_infimum": [float(r) for r in est.running_infimum],
            "partial": est.partial,
            "trend_to_zero": inf is not None and float(inf) < TREND_THRESHOLD,
        }
    return table


def _seminorm_table(a: IntMatrix, m: IntPolynomial) -> dict:
    try:
        root, sem = _eigenline_seminorm(a, m, 30)
    except (PreconditionError, NumericalDegeneracyError) as exc:
        return {"error": str(exc)}
    basis = [tuple(1 if j == i else 0 for j in range(a.n)) for i in range(a.n)]
    # exact: P e = 0 iff lam is not a root of the annihilator of e
    positive = [vanishes_at(IntPolynomial.from_fractions(_annihilator_of_vector(a, e)), root)
                for e in basis]
    values = {f"e{i + 1}": sem.evaluate(e) if pos else 0.0
              for i, (e, pos) in enumerate(zip(basis, positive))}
    return {"values": values, "all_positive": all(positive)}


def build_dossier(a: IntMatrix, evidence_level: str = "none", *,
                  k_max: int = 12, max_radius: int = 12,
                  budget: int = 400_000) -> ClassificationDossier:
    """Classify A exactly and optionally attach experimental corroboration.

    Verdicts come only from exact computation; evidence is illustrative and
    resource failures inside it are recorded as partial, never escalated.
    An estimate whose running infimum falls below TREND_THRESHOLD is marked
    as trending to 0.
    """
    if evidence_level not in EVIDENCE_LEVELS:
        raise PreconditionError(f"evidence_level must be one of {EVIDENCE_LEVELS}")
    report = classify_sdp(a)
    dossier = ClassificationDossier(
        matrix=a,
        report=report,
        verdicts=_verdicts_from_report(report, a.n),
    )
    if evidence_level in ("estimates", "full"):
        dossier.evidence["stable_length"] = _generator_estimates(a, k_max, max_radius, budget)
    if evidence_level == "full":
        if report.has_unit_circle_eigenvalue:
            dossier.evidence["eigen_seminorm"] = _seminorm_table(a, report.minimal_poly)
        else:
            dossier.evidence["eigen_seminorm"] = None
    return dossier
