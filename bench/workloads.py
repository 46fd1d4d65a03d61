"""Seeded inputs for the four benchmark workloads.

Standard library only (plus the committed ``pool.json``): the worker
generates its inputs during set-up and the checker regenerates the same
inputs from the same seed, so both sides agree on what op k was without
shipping the inputs around.

``generate(workload, seed)`` returns the workload's *input set*.  A run
executes the set in passes, in the same order each pass, until its time is
up, so every input is measured several times.  The composition of a set is
fixed by design: the seed picks the concrete inputs inside it (which twist,
which symmetric image of a Heisenberg element, which arguments) and their
order, never how many of each class there are.
"""
from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from math import gcd
from pathlib import Path

WORKLOADS = ("heis-wordlen", "sdp-classify", "sdp-evidence", "cli-cold")

# -- heis-wordlen ----------------------------------------------------------

MAIN_XY, MAIN_Z = 6, 40          # |x|, |y| <= 6, 0 < |z| <= 40
DEEP_XY, DEEP_Z = 3, (41, 80)    # |x|, |y| <= 3, 40 < |z| <= 80
_GOLDEN = 0.6180339887498949


def _heis_region(rng: random.Random, bound: int, z_lo: int, z_hi: int) -> list:
    """Queries for every (x, y) with |x|, |y| <= bound and z_lo <= |z| <= z_hi.

    The word metric is invariant under (x, y, z) -> (-x, y, -z) and
    (x, -y, -z), so the (up to four) columns (+-a, +-b) hold the same
    lengths, and a query's cost depends on its class (|x|, |y|, |z|), not on
    the sign image asked.  Each class (a, b) gets one |z| per column from a
    fixed grid spread evenly over [z_lo, z_hi]; the seed assigns the grid
    values to the columns, and each (x, y, |z|) is asked with both signs of
    z.  Whichever of the two signs a closed form covers, the set holds one of
    each, so the formula/search mix does not depend on the seed.
    """
    span = z_hi - z_lo + 1
    out = []
    for a in range(bound + 1):
        for b in range(bound + 1):
            columns = sorted({(sx * a, sy * b) for sx in (1, -1) for sy in (1, -1)})
            phase = ((a * (bound + 1) + b + 1) * _GOLDEN) % 1.0
            mags = [z_lo + int((i + phase) * span / len(columns)) for i in range(len(columns))]
            rng.shuffle(mags)
            for (x, y), m in zip(columns, mags):
                out += [(x, y, m), (x, y, -m)]
    return out


def heis_inputs(seed: int) -> list[tuple[int, int, int]]:
    """169 columns x 2 queries in the main box, 49 x 2 in the deep tail."""
    rng = random.Random(f"heis-wordlen/{seed}")
    qs = (_heis_region(rng, MAIN_XY, 1, MAIN_Z)
          + _heis_region(rng, DEEP_XY, DEEP_Z[0], DEEP_Z[1]))
    rng.shuffle(qs)
    return qs


def is_deep(q: tuple[int, int, int]) -> bool:
    return abs(q[2]) > MAIN_Z


# -- integer polynomials and matrices (ascending coefficient lists) --------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for monic b dividing a exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ValueError("inexact polynomial division")
    return q


_CYCLOTOMIC: dict[int, list[int]] = {}


def cyclotomic(m: int) -> list[int]:
    """Phi_m as ascending coefficients."""
    if m not in _CYCLOTOMIC:
        p = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                p = _poly_exact_div(p, cyclotomic(d))
        _CYCLOTOMIC[m] = p
    return _CYCLOTOMIC[m]


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def companion(asc: list[int]) -> list[list[int]]:
    """Companion matrix of the monic polynomial asc (char poly = asc)."""
    n = len(asc) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -asc[i]
    return rows


def block_diag(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(row)] = row
        at += len(b)
    return rows


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def conjugate_unimodular(rows: list[list[int]], rng: random.Random,
                         steps: int = 3) -> list[list[int]]:
    """P A P^-1 for P a product of elementary matrices E_ij(+-1)."""
    n = len(rows)
    if n < 2:
        return rows
    out = rows
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e_inv = [r[:] for r in e]
        e[i][j], e_inv[i][j] = c, -c
        out = matmul(matmul(e, out), e_inv)
    return out


# -- matrix specs ----------------------------------------------------------

# Irreducible palindromic polynomials with exactly two roots off the unit
# circle (Salem polynomials), checked with numpy.  The degree-10 pair
# includes Lehmer's polynomial.
SALEM_SMALL = (
    [1, -1, -1, -1, 1],
    [1, 1, -1, 1, 1],
    [1, 0, -1, -1, -1, 0, 1],
    [1, -1, 0, -1, 0, -1, 1],
)
SALEM_LEHMER = (
    [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],
    [1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 1],
)
CONNER_POLY = [1, -2, 1, -2, 1]   # companion is the Conner matrix
# Unipotent with a 2x2 and a 1x1 Jordan block: minimal polynomial (x - 1)^2,
# characteristic polynomial (x - 1)^3.
DEROGATORY_UNIPOTENT = [[1, 0, 0], [1, 1, 1], [0, 0, 1]]
DEROGATORY_POLY = [-1, 3, -3, 1]

POOL_FILE = Path(__file__).resolve().parent / "pool.json"


@lru_cache(maxsize=None)
def _pool() -> dict:
    """Companion polynomials by workload, dimension and class (make_pool.py)."""
    return json.loads(POOL_FILE.read_text())


def _spec(kind: str, rows: list[list[int]], poly: list[int]) -> dict:
    """A twist matrix and its characteristic polynomial, known from the
    construction, for the checker."""
    return {"kind": kind, "n": len(rows), "rows": rows, "poly": poly}


def random_companion(rng: random.Random, n: int, coeff: int = 1) -> dict:
    asc = ([rng.choice((-1, 1))] + [rng.randint(-coeff, coeff) for _ in range(n - 1)]
           + [1])
    return _spec("companion", companion(asc), asc)


def pool_companions(rng: random.Random, workload: str, recipe: dict) -> list[dict]:
    """Companions drawn without replacement from the pool, so many of each
    class and dimension as ``recipe`` ({n: {class: count}}) asks."""
    out = []
    for n, classes in recipe.items():
        for cls, k in classes.items():
            for asc in rng.sample(_pool()[workload][str(n)][cls], k):
                out.append(_spec(f"companion-{cls}", companion(asc), asc))
    return out


def finite_order_case(rng: random.Random, n: int) -> dict:
    """A cyclotomic companion (half the time) or a block rotation of dim n.

    Either way conjugated by a random unimodular matrix, so the entries do
    not reveal the block structure.
    """
    single = [m for m in range(1, 2 * n * n + 3) if totient(m) == n]
    if single and rng.random() < 0.5:
        ms = [rng.choice(single)]
    else:
        ms, left = [], n
        while left:
            ms.append(rng.choice([m for m in range(1, 2 * n * n + 3) if totient(m) <= left]))
            left -= totient(ms[-1])
    blocks = [companion(cyclotomic(m)) for m in ms]
    poly = [1]
    for m in ms:
        poly = poly_mul(poly, cyclotomic(m))
    rows = conjugate_unimodular(block_diag(blocks), rng)
    return _spec("finite-order", rows, poly)


def salem_case(rng: random.Random, poly: list[int]) -> dict:
    rows = conjugate_unimodular(companion(poly), rng)
    return _spec("salem", rows, poly)


# Random companions per dimension and class (see make_pool.py): the seed
# picks the polynomials, never the counts, so the share of inputs taking
# each path through classify_sdp is the same for every seed.  Sorted by
# cost, the 30 twists of the set fall into six cheap ones (n = 4, the
# degree-4 and -6 Salem twists), twelve in the n = 8 class (the eleven
# companions and the finite-order twist), Lehmer's, nine n = 12 companions
# and two dear ones (n = 16, 20).  The median lands inside the n = 8 class.
CLASSIFY_RECIPE = {4: {"generic": 2, "unit": 1}, 8: {"generic": 7, "unit": 4},
                   12: {"generic": 7, "unit": 2}, 16: {"generic": 1}, 20: {"generic": 1}}
FINITE_DIMS = (4, 8)


def sdp_classify_inputs(seed: int) -> list[dict]:
    """Companions by CLASSIFY_RECIPE, finite-order twists at n = 4 and 8, a
    degree-4 and a degree-6 Salem twist and a degree-10 one (Lehmer's
    polynomial or its neighbour)."""
    rng = random.Random(f"sdp-classify/{seed}")
    ops = pool_companions(rng, "sdp-classify", CLASSIFY_RECIPE)
    ops += [finite_order_case(rng, n) for n in FINITE_DIMS]
    ops += [salem_case(rng, rng.choice(SALEM_SMALL[:2])),
            salem_case(rng, rng.choice(SALEM_SMALL[2:])),
            salem_case(rng, rng.choice(SALEM_LEHMER))]
    rng.shuffle(ops)
    return ops


def all_companions(n: int, coeff: int) -> list[list[int]]:
    """Every monic degree-n polynomial with unit constant term and middle
    coefficients in [-coeff, coeff], ascending."""
    polys = [[1]]
    for i in range(n):
        polys = [p + [c] for p in polys for c in ((-1, 1) if i == 0 else range(-coeff, coeff + 1))]
    return [p[1:] + [1] for p in polys]


# The pool holds every companion of these coefficient bounds: 14 at n = 2
# (8 generic, 2 unit, 4 finite) and 18 at n = 3 (12 generic, 2 unit, 4
# finite).  The set takes all 18 at n = 3: their full evidence costs
# 170-340 ms depending on the matrix, and the median of the set lands among
# them, so a draw of some would let the seed move the median.  Random n = 4
# twists and finite-order twists at n = 3, 4 are left out, as their full
# evidence costs 0.8-2 s depending on the matrix, which would make a set's
# cost a lottery.
EVIDENCE_COEFF = {2: 3, 3: 1}
EVIDENCE_RECIPE = {2: {"generic": 1, "unit": 1}, 3: {"generic": 12, "unit": 2, "finite": 4}}


def sdp_evidence_inputs(seed: int) -> list[dict]:
    """The Conner matrix (n = 4), companions by EVIDENCE_RECIPE, a
    finite-order twist at n = 2, and two derogatory unipotent twists at
    n = 3: DEROGATORY_UNIPOTENT and a conjugate of it.

    ``build_dossier(A, "full")`` raises on DEROGATORY_UNIPOTENT and on some
    of its conjugates; those ops count as failed.
    """
    rng = random.Random(f"sdp-evidence/{seed}")
    ops = [_spec("conner", companion(CONNER_POLY), CONNER_POLY)]
    ops += pool_companions(rng, "sdp-evidence", EVIDENCE_RECIPE)
    ops.append(finite_order_case(rng, 2))
    ops.append(_spec("derogatory", DEROGATORY_UNIPOTENT, DEROGATORY_POLY))
    ops.append(_spec("derogatory", conjugate_unimodular(DEROGATORY_UNIPOTENT, rng),
                     DEROGATORY_POLY))
    rng.shuffle(ops)
    return ops


# -- cli-cold --------------------------------------------------------------

SDP_BALL_MATRIX = "[[2,1],[1,1]]"


def cli_inputs(seed: int) -> list[list[str]]:
    """Every subcommand once, as the argv after ``lengrp``.

    wordlen twice: once on a closed-form element (x >= y >= 0, x^2 <= z) and
    once on an element the closed form leaves to the BFS oracle
    (x > y >= 0, x*y <= z < x^2).
    """
    rng = random.Random(f"cli-cold/{seed}")
    x = rng.randint(0, 4)
    formula = [x, rng.randint(0, x), rng.randint(x * x, MAIN_Z)]
    x = rng.randint(2, 5)
    y = rng.randint(0, x - 1)
    oracle = [x, y, rng.randint(x * y, x * x - 1)]
    matrix = json.dumps(random_companion(rng, 6)["rows"], separators=(",", ":"))
    # x, y != 0: with x or y zero and the other >= 2 the powers leave the
    # oracle radius and one call costs three times as much
    element = ",".join(str(rng.choice((-2, -1, 1, 2))) for _ in range(2)) \
        + f",{rng.randint(-3, 3)}"
    ops = [
        ["wordlen", *map(str, formula)],
        ["wordlen", *map(str, oracle)],
        ["classify", "--matrix", matrix],
        ["stable", "--", element],
        ["axioms", "--length", "wordlen", "--samples", "1000",
         "--seed", str(rng.randrange(10**6))],
        ["ball", "--radius", "22"],
        ["ball", "--group", "sdp", "--matrix", SDP_BALL_MATRIX, "--radius", "10"],
    ]
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list:
    gen = {"heis-wordlen": heis_inputs, "sdp-classify": sdp_classify_inputs,
           "sdp-evidence": sdp_evidence_inputs, "cli-cold": cli_inputs}[workload]
    return gen(seed)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
