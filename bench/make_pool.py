"""Write ``pool.json``: companion polynomials sorted into classes.

    python3 bench/make_pool.py

The matrix workloads draw their companion matrices class by class from this
pool, so that a seed picks which polynomials a set holds but never how many
of each class: the class decides which paths ``classify_sdp`` and the
evidence take (early exit on finite order, unit-circle seminorm), and so
much of an op's cost.  A polynomial's class comes from numpy roots and
``sympy.factor_list``, not from lengrp; the benchmark checks every answer
against its own references anyway.

Classes, for a monic integer polynomial with constant term +-1:

* ``generic``: irreducible with no root on the unit circle (infinite order);
* ``unit``: reducible with a root on the unit circle, not of finite order;
* ``salem``: irreducible with a root on the unit circle, not cyclotomic
  (not drawn);
* ``finite``: squarefree with every root on the unit circle, so a product of
  distinct cyclotomic polynomials and its companion has finite order;
* ``other``: reducible with no root on the unit circle (not drawn).

The pool is fixed: rerunning this script writes the same file.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import sympy

import workloads

HERE = Path(__file__).resolve().parent
X = sympy.Symbol("x")
PER_CLASS = 24            # polynomials kept per class and dimension
MAX_DRAWS = 20_000        # random draws per dimension at most


def poly_class(asc: list[int]) -> str:
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(asc)), X))
    on_circle = [abs(abs(r) - 1) < 1e-7 for f, _ in factors
                 for r in np.roots([int(c) for c in f.all_coeffs()])]
    if all(on_circle) and all(e == 1 for _, e in factors):
        return "finite"
    irreducible = len(factors) == 1 and factors[0][1] == 1
    if any(on_circle):
        return "salem" if irreducible else "unit"
    return "generic" if irreducible else "other"


def classify_all(polys) -> dict[str, list[list[int]]]:
    out: dict[str, list[list[int]]] = {}
    for asc in polys:
        out.setdefault(poly_class(asc), []).append(asc)
    return out


def sampled(n: int, rng: random.Random) -> dict[str, list[list[int]]]:
    """Up to PER_CLASS distinct random companions per class, as
    ``workloads.random_companion`` draws them."""
    out: dict[str, list[list[int]]] = {}
    seen = set()
    for _ in range(MAX_DRAWS):
        asc = workloads.random_companion(rng, n)["poly"]
        if tuple(asc) in seen:
            continue
        seen.add(tuple(asc))
        kept = out.setdefault(poly_class(asc), [])
        if len(kept) < PER_CLASS:
            kept.append(asc)
        if all(len(out.get(c, ())) >= PER_CLASS for c in ("generic", "unit")):
            break
    return out


def main() -> None:
    rng = random.Random("pool")
    pool = {"sdp-classify": {}, "sdp-evidence": {}}
    for n in sorted(set(workloads.CLASSIFY_RECIPE)):
        pool["sdp-classify"][str(n)] = sampled(n, rng)
    for n, coeff in workloads.EVIDENCE_COEFF.items():
        pool["sdp-evidence"][str(n)] = classify_all(workloads.all_companions(n, coeff))
    for workload, dims in pool.items():
        for n, classes in dims.items():
            print(workload, n, {c: len(v) for c, v in sorted(classes.items())})
    (HERE / "pool.json").write_text(json.dumps(pool, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
