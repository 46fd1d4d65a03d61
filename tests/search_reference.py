"""Bidirectional single-target word-length search: a reference for tests.

The library answers word lengths from one shared ball (``SharedBall``);
this search is the independent check it is compared with, and the home of
the budget and far-target behaviour that tests pin.  ``parse_sdp`` reads
an element of Z^n x|_A Z from text; nothing in the library needs it.
"""
from __future__ import annotations

from typing import Optional

from lengrp.errors import _as_count
from lengrp.groups import (
    DEFAULT_STATE_BUDGET,
    SdpContext,
    SdpElem,
    SdpGroup,
    _grow,
    _refit,
)
from lengrp.matrices import IntMatrix


def parse_sdp(text: str, ctx: SdpContext) -> SdpElem:
    """The element (v, t) written 'v1,...,vn;t'."""
    try:
        vec, t = text.split(";")
        v = tuple(int(p.strip()) for p in vec.split(","))
        return SdpElem(v, int(t.strip()), ctx)
    except ValueError as exc:
        raise ValueError(f"expected 'v1,...,vn;t', got {text!r}") from exc


def outside(group: SdpGroup, coords: tuple, r: int, budget: int) -> bool:
    """True only if (v_1, ..., v_n, t) = coords lies outside the ball of
    radius r: |t| > r, or some |v_i| > group.extent(r).  A^s and A^-s are
    stepped outward from s = 0, nothing cached, until r m(+-s) reaches
    max |v_i|: at most r products each.  For r > budget the scan is
    skipped (False): a search that stores at most budget states ends
    within about budget levels, so the scan could cost more than the
    search it would save."""
    *v, t = coords
    if abs(t) > r:
        return True
    far = max(map(abs, v))
    if far <= r or r > budget:
        return False
    fwd = back = IntMatrix.identity(group.n)
    for _ in range(r):  # A^s and A^-s for s = 0, ..., r - 1
        if r * max(abs(x) for p in (fwd, back) for row in p.rows for x in row) >= far:
            return False
        fwd, back = fwd @ group.ctx.matrix, back @ group.ctx.inverse
    return True


def bfs_word_length(group, g, max_radius: int,
                    budget: int = DEFAULT_STATE_BUDGET) -> Optional[int]:
    """Exact word length of g if it is at most max_radius, else None.

    g is a group element (it has ``key``).  Bidirectional search: balls
    grown around the identity and around g meet in the middle, doubling
    the reachable radius for single-target queries.  Each step grows the
    smaller frontier by one level (the identity side on ties) and looks its
    new nodes up on the other side.  An SDP target that its coordinates
    place outside the ball of radius max_radius reads None before any key
    is formed.
    """
    _as_count(max_radius, "max_radius", 0)
    coords = g.key
    if isinstance(group, SdpGroup) and outside(group, coords, max_radius, budget):
        return None
    group = group.fit(group.extent(0, coords))
    start = group.pack(coords)
    if start == group.identity_key:
        return 0
    # one [distances, frontier, radius] per side: the identity's, then g's
    sides = [[{k: 0}, [k], 0] for k in (group.identity_key, start)]
    best = max_radius + 1  # no meeting yet
    while (done := sides[0][2] + sides[1][2]) < max_radius and best > done:
        side, other = sides if len(sides[0][1]) <= len(sides[1][1]) else sides[::-1]
        dist, frontier, r = side
        other_dist = other[0]
        r += 1
        r1, r2 = (r, other[2]) if side is sides[0] else (other[2], r)
        group = _refit(group, max(group.extent(r1), group.extent(r2, coords)),
                       [s[0] for s in sides], [s[1] for s in sides])
        nxt = _grow(group, frontier, dist, r, budget - len(other_dist), done,
                    f"state budget {budget} exceeded")
        side[1:] = nxt, r
        best = min([best] + [r + other_dist[k] for k in nxt if k in other_dist])
        if not nxt:
            break
    return best if best <= max_radius else None
