"""Human-readable classification dossiers for G = Z^n x|_A Z.

Wraps the exact spectral verdicts in claim strings with their citation
tags, and optionally attaches experimental corroboration: BFS stable-length
ratios for the lattice generators and the eigenline seminorm table.  The
tag strings below are part of the stable output schema.  ``groups`` and
``lengths`` are imported by the evidence helpers, not with the module, so
a "none" dossier never loads them.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

from .errors import (
    DEFAULT_STATE_BUDGET,
    NumericalDegeneracyError,
    OracleExhausted,
    PreconditionError,
    _Frozen,
    _Record,
)
from .matrices import IntMatrix, _annihilator_of_vector
from .polynomials import vanishes_at
from .spectral import SpectralReport, classify_sdp

if TYPE_CHECKING:
    from .groups import SdpContext, SdpElem
    from .lengths import LengthEvaluator, _Eigenline

TAG_FINITE = "Lemma finite"
TAG_NORM1 = "Lemma norm1"
TAG_STABLEWORD = "Lemma stableword"
TAG_COROLLARY = "Corollary"
CLAIM_UNDECIDED = "not decided by this paper's lemmas"

EVIDENCE_LEVELS = ("none", "estimates", "full")
# a running infimum below this counts as a trend toward 0 (non-normative)
TREND_THRESHOLD = 0.5


class Verdict(_Frozen):
    """A claim and its lemma: exactly one tag for decided claims, None otherwise."""

    __slots__ = ("claim", "lemma")

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "lemma": self.lemma}


class ClassificationDossier(_Record):
    """``evidence`` defaults to a new empty dict."""

    __slots__ = ("matrix", "report", "verdicts", "evidence")
    _defaults = {"evidence": dict}

    def to_json_dict(self) -> dict:
        """The dossier as JSON types; the evidence's tuples are written as
        arrays by ``json``."""
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


class _ReadOnlyDict(dict):
    """A dict that refuses changes, so equal evidence entries can be one
    object without a change to one showing up in another."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("dossier evidence entries are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _generator_name(i: int) -> str:
    """'e1', 'e2', ...: interned, so all dossiers share their key strings."""
    return sys.intern(f"e{i + 1}")


def _sdp_length_evaluator(ctx: SdpContext, max_radius: int, budget: int,
                          exceeds: Optional[Callable[[SdpElem, int], bool]] = None
                          ) -> LengthEvaluator:
    """Exact word lengths up to max_radius.  The word e_1^v_1 ... e_n^v_n t^t
    bounds |(v, t)| by ``upper`` = |v|_1 + |t|; a lower bound phi with
    exceeds(g, c) only if phi(g) > c settles |g| = upper when
    phi > upper - 1, and |g| > max_radius when phi > max_radius, without a
    search.  Every other target is searched in one SharedBall."""
    from .groups import SdpGroup, SharedBall
    from .lengths import LengthEvaluator

    ball = SharedBall(SdpGroup(ctx), max_radius, budget)

    def func(g: SdpElem) -> int:
        upper = sum(map(abs, g.v)) + abs(g.t)
        if exceeds is not None and exceeds(g, min(upper - 1, max_radius)):
            value = upper if upper <= max_radius else None
        else:
            value = ball.word_length(g)
        if value is None:
            raise OracleExhausted(f"radius {max_radius} insufficient for {g.key}")
        return value

    return LengthEvaluator(name="sdp-wordlen", domain="sdp", func=func, exact=True)


def _generator_estimates(a: IntMatrix, line: Optional[_Eigenline], k_max: int,
                         max_radius: int, budget: int) -> dict:
    from .groups import SdpContext, SdpElem
    from .lengths import _eigen_functional, stable_length_estimate

    ctx = SdpContext(a)
    exceeds = _eigen_functional(line) if line is not None else None
    length = _sdp_length_evaluator(ctx, max_radius, budget, exceeds)
    table = {}
    for i in range(a.n):
        e_i = SdpElem(tuple(1 if j == i else 0 for j in range(a.n)), 0, ctx)
        est = stable_length_estimate(length, e_i, k_max)
        inf = est.infimum
        trend = inf is not None and float(inf) < TREND_THRESHOLD
        table[_generator_name(i)] = _estimate_entry(
            tuple(k for k, _, _ in est.samples), tuple(float(r) for _, _, r in est.samples),
            tuple(map(float, est.running_infimum)), est.partial, trend)
    return table


@lru_cache(maxsize=1024)
def _estimate_entry(ks: tuple, ratios: tuple, running: tuple, partial: bool,
                    trend: bool) -> _ReadOnlyDict:
    """Entries are read-only, so dossiers share one per value (ks holds
    ints, the others floats, so equal arguments print equal JSON)."""
    return _ReadOnlyDict(ks=ks, ratios=ratios, running_infimum=running, partial=partial,
                         trend_to_zero=trend)


def _seminorm_table(a: IntMatrix, line: _Eigenline) -> dict:
    from .lengths import _eigenline_seminorm

    try:
        sem = _eigenline_seminorm(line)
    except NumericalDegeneracyError as exc:
        return {"error": str(exc)}
    basis = [tuple(1 if j == i else 0 for j in range(a.n)) for i in range(a.n)]
    # exact: P e = 0 iff lam is not a root of the annihilator of e
    positive = [vanishes_at(_annihilator_of_vector(a, e), line.root) for e in basis]
    values = {_generator_name(i): sem.evaluate(e) if pos else 0.0
              for i, (e, pos) in enumerate(zip(basis, positive))}
    return {"values": values, "all_positive": all(positive)}


def build_dossier(a: IntMatrix, evidence_level: str = "none", *,
                  k_max: int = 12, max_radius: int = 12,
                  budget: int = DEFAULT_STATE_BUDGET) -> ClassificationDossier:
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
    if evidence_level == "none":
        return dossier
    from .lengths import _Eigenline

    root = report.unit_circle_root
    line = _Eigenline(a, report.minimal_poly, root, 30) if root is not None else None
    dossier.evidence["stable_length"] = _generator_estimates(a, line, k_max, max_radius, budget)
    if evidence_level == "full":
        dossier.evidence["eigen_seminorm"] = _seminorm_table(a, line) if line is not None else None
    return dossier
