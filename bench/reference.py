"""Independent references for checking a run's answers.

Only the last two checks call lengrp, and neither through the call timed:

* Heisenberg word lengths come from a BFS over a dense numpy grid, written
  from the group law alone.
* Twist verdicts come from the characteristic polynomial known by
  construction, factored by ``sympy.factor_list``; unit-circle roots from
  numpy roots of each factor; finite order by exact exponentiation;
  diagonalizability by whether the product of the distinct factors vanishes
  at A (minimal polynomial squarefree); and the verdict rules as the paper
  states them.
* sdp-evidence verdicts are compared with those ``build_dossier(A, "none")``
  gives, which is what sdp-classify times.
* CLI output is compared byte for byte with an in-process
  ``lengrp.cli.main`` call on the same argv.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from math import gcd

import numpy as np
import sympy

import workloads

# -- Heisenberg word length ------------------------------------------------


class HeisDistances:
    """Word lengths of every element within ``radius`` of the identity.

    Generators a^{+-1}: (x, y, z) -> (x +- 1, y, z); b^{+-1}: (x, y, z) ->
    (x, y +- 1, z +- x).  A word with i a-letters and j b-letters reaches
    |x| <= i and |z| <= i*j <= radius^2/4, which bounds the grid.
    """

    UNREACHED = 255

    def __init__(self, radius: int):
        self.radius = radius
        self.xy = radius
        self.zr = radius * radius // 4
        w, d = 2 * self.xy + 1, 2 * self.zr + 1
        self.stride_x, self.stride_y = w * d, d
        self.dist = np.full(w * w * d, self.UNREACHED, dtype=np.uint8)
        frontier = np.array([self._index(0, 0, 0)], dtype=np.int64)
        self.dist[frontier] = 0
        for r in range(1, radius + 1):
            xs = frontier // self.stride_x - self.xy
            cand = np.concatenate([
                frontier + self.stride_x, frontier - self.stride_x,
                frontier + self.stride_y + xs, frontier - self.stride_y - xs,
            ])
            cand = np.unique(cand[self.dist[cand] == self.UNREACHED])
            self.dist[cand] = r
            frontier = cand

    def _index(self, x: int, y: int, z: int) -> int:
        return ((x + self.xy) * (2 * self.xy + 1) + (y + self.xy)) * self.stride_y + z + self.zr

    def length(self, x: int, y: int, z: int) -> int | None:
        """Exact word length, or None if it exceeds the radius."""
        if max(abs(x), abs(y)) > self.xy or abs(z) > self.zr:
            return None
        d = int(self.dist[self._index(x, y, z)])
        return None if d == self.UNREACHED else d


# -- twist matrices ----------------------------------------------------------

_X = sympy.Symbol("x")


def _mat_power(a: list[list[int]], k: int) -> list[list[int]]:
    n = len(a)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            result = workloads.matmul(result, a)
        k >>= 1
        if k:
            a = workloads.matmul(a, a)
    return result


def _is_identity(a: list[list[int]]) -> bool:
    return all(a[i][j] == (i == j) for i in range(len(a)) for j in range(len(a)))


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + ([m] if m > 1 else [])


def _order_lcm_bound(n: int) -> int:
    """A multiple of every order of a finite-order element of GL_n(Z).

    Such an order is a product of prime powers q with totient(q) <= n.
    """
    bound = 1
    for p in range(2, n + 2):
        if _prime_factors(p) != [p]:
            continue
        q = p
        while workloads.totient(q * p) <= n:
            q *= p
        if workloads.totient(q) <= n:
            bound = bound * q // gcd(bound, q)
    return bound


def finite_order_holds(rows: list[list[int]], claimed: int | None, rho: float) -> bool:
    """Check a claimed order (None = infinite) by exact exponentiation.

    A claim m holds iff A^m = I and A^(m/p) != I for every prime p | m.  A
    claim of infinite order holds if some eigenvalue has modulus > 1, or
    else if A^L != I for L a multiple of every possible order (entries of
    A^L stay polynomially bounded when the spectrum is on the unit circle).
    """
    if claimed is not None:
        return (_is_identity(_mat_power(rows, claimed))
                and not any(_is_identity(_mat_power(rows, claimed // p))
                            for p in _prime_factors(claimed)))
    if rho > 1 + 1e-6:
        return True
    return not _is_identity(_mat_power(rows, _order_lcm_bound(len(rows))))


def _annihilates(factors: list, rows: list[list[int]]) -> bool:
    """Whether the product of the given polynomials vanishes at A, exactly.

    Given the distinct irreducible factors of the characteristic polynomial,
    this is whether the minimal polynomial is squarefree, i.e. whether A is
    diagonalizable over C.
    """
    radical = sympy.Poly(1, _X)
    for f in factors:
        radical *= f
    n = len(rows)
    value = [[0] * n for _ in range(n)]
    for c in radical.all_coeffs():          # Horner, leading coefficient first
        value = workloads.matmul(value, rows)
        for i in range(n):
            value[i][i] += int(c)
    return not any(any(row) for row in value)


def reference_report(spec: dict, claimed_order: int | None) -> dict:
    """The SpectralReport fields for one twist, from independent sources.

    ``claimed_order`` (the program's answer) is only checked, by
    ``finite_order_holds``; the returned order is the claim if it holds and
    the string "mismatch" otherwise.
    """
    rows = spec["rows"]
    rho = float(max(abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    order = claimed_order if finite_order_holds(rows, claimed_order, rho) else "mismatch"
    poly = sympy.Poly(list(reversed(spec["poly"])), _X)
    _, factors = sympy.factor_list(poly)
    irreducible = len(factors) == 1 and factors[0][1] == 1
    unit = any(abs(abs(root) - 1) < 1e-7
               for f, _ in factors
               for root in np.roots([int(c) for c in f.all_coeffs()]))
    finite = order is not None and order != "mismatch"
    diagonalizable = _annihilates([f for f, _ in factors], rows)
    if irreducible:
        ppswl = "yes" if unit else "no"
    elif diagonalizable and not unit:
        ppswl = "no"
    else:
        ppswl = "indeterminate"
    if diagonalizable and not unit:
        vanishes = "yes"
    elif finite or (irreducible and unit):
        vanishes = "no"
    else:
        vanishes = "indeterminate"
    return {
        "finite_order": order,
        "diagonalizable": diagonalizable,
        "irreducible": irreducible,
        "has_unit_circle_eigenvalue": unit,
        "admits_discrete_purely_positive": finite,
        "purely_positive_stable_word_length": ppswl,
        "vanishes_on_lattice": vanishes,
    }


def classify_verdicts(spec: dict) -> dict:
    """The report ``build_dossier(A, "none")`` gives, as sdp-classify times it.

    sdp-evidence's full dossier must carry the same verdicts.
    """
    from lengrp import IntMatrix, build_dossier

    return build_dossier(IntMatrix.from_rows(spec["rows"]), "none").report.to_json_dict()


def evidence_problems(spec: dict, report: dict, evidence: dict) -> list[str]:
    """Sanity of the full-level evidence against bounds that need no search.

    In Z^n x| Z the element e_i^k is a word of k letters, so 0 < L/k <= 1;
    the running infimum is the prefix minimum of the ratios; the seminorm
    table is present exactly when there is a unit-circle eigenvalue.
    """
    problems = []
    table = evidence.get("stable_length", {})
    if sorted(table) != sorted(f"e{i + 1}" for i in range(spec["n"])):
        problems.append("stable_length keys")
    for key, entry in table.items():
        ratios = entry.get("ratios", [])
        if not all(0 < r <= 1 for r in ratios):
            problems.append(f"{key}: ratio outside (0, 1]")
        if ratios and entry.get("running_infimum") != [min(ratios[:i + 1])
                                                       for i in range(len(ratios))]:
            problems.append(f"{key}: running infimum")
    sem = evidence.get("eigen_seminorm")
    if (sem is not None) != report["has_unit_circle_eigenvalue"]:
        problems.append("eigen_seminorm presence")
    if sem and "values" in sem and not all(np.isfinite(v) and v >= 0
                                           for v in sem["values"].values()):
        problems.append("eigen_seminorm values")
    return problems


# -- CLI ---------------------------------------------------------------------


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of an in-process ``lengrp.cli.main`` call."""
    from lengrp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
