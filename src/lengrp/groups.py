"""Group elements and the Cayley-graph word-length oracle.

Two families: the discrete Heisenberg group in upper-triangular coordinates
(x, y, z), and semidirect products Z^n x|_A Z with twist A in GL_n(Z).
Word lengths are computed by exact breadth-first search over the standard
symmetric generating sets.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from operator import add
from typing import Dict, Iterator, Optional

from .errors import PreconditionError, ResourceExhausted
from .matrices import IntMatrix

DEFAULT_STATE_BUDGET = 2_000_000

Key = tuple


# -- Heisenberg ----------------------------------------------------------


@dataclass(frozen=True)
class HeisElem:
    """Heisenberg element; product law (x1,y1,z1)(x2,y2,z2) =
    (x1+x2, y1+y2, z1+z2+x1*y2)."""

    x: int
    y: int
    z: int

    @classmethod
    def identity(cls) -> "HeisElem":
        return cls(0, 0, 0)

    def __mul__(self, other: "HeisElem") -> "HeisElem":
        return HeisElem(
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self) -> "HeisElem":
        return HeisElem(-self.x, -self.y, self.x * self.y - self.z)

    def conjugate_by(self, h: "HeisElem") -> "HeisElem":
        return h * self * h.inverse()

    def pow_(self, k: int) -> "HeisElem":
        if k < 0:
            return self.inverse().pow_(-k)
        # closed form: the z part picks up the triangular correction
        return HeisElem(
            k * self.x,
            k * self.y,
            k * self.z + (k * (k - 1) // 2) * self.x * self.y,
        )

    __pow__ = pow_

    @property
    def key(self) -> Key:
        return (self.x, self.y, self.z)


HEIS_A = HeisElem(1, 0, 0)
HEIS_B = HeisElem(0, 1, 0)
HEIS_C = HeisElem(0, 0, 1)  # the central commutator a^-1 b^-1 a b


def parse_heis(text: str) -> HeisElem:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'x,y,z', got {text!r}")
    return HeisElem(*(int(p.strip()) for p in parts))


# -- semidirect products -------------------------------------------------


class SdpContext:
    """Shared immutable twist data for Z^n x|_A Z elements."""

    def __init__(self, matrix: IntMatrix):
        if abs(matrix.det()) != 1:
            raise PreconditionError("twist matrix must lie in GL_n(Z)")
        self.matrix = matrix
        self.n = matrix.n
        self._powers: Dict[int, IntMatrix] = {0: IntMatrix.identity(matrix.n)}

    def power(self, t: int) -> IntMatrix:
        if t not in self._powers:
            self._powers[t] = self.matrix.mat_pow(t)
        return self._powers[t]

    def __eq__(self, other) -> bool:
        return isinstance(other, SdpContext) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)


@dataclass(frozen=True)
class SdpElem:
    """Element (v, t) with law (v1,t1)(v2,t2) = (v1 + A^t1 v2, t1+t2)."""

    v: tuple[int, ...]
    t: int
    ctx: SdpContext

    def __post_init__(self):
        if len(self.v) != self.ctx.n:
            raise PreconditionError("lattice part has wrong dimension")
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))

    def _check(self, other: "SdpElem") -> None:
        if self.ctx != other.ctx:
            raise PreconditionError("elements live over different twist matrices")

    def __mul__(self, other: "SdpElem") -> "SdpElem":
        self._check(other)
        av = self.ctx.power(self.t).apply(other.v)
        return SdpElem(tuple(a + b for a, b in zip(self.v, av)), self.t + other.t, self.ctx)

    def inverse(self) -> "SdpElem":
        av = self.ctx.power(-self.t).apply(self.v)
        return SdpElem(tuple(-a for a in av), -self.t, self.ctx)

    def conjugate_by(self, h: "SdpElem") -> "SdpElem":
        return h * self * h.inverse()

    def pow_(self, k: int) -> "SdpElem":
        if k < 0:
            return self.inverse().pow_(-k)
        result = SdpElem((0,) * self.ctx.n, 0, self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    __pow__ = pow_

    @property
    def key(self) -> Key:
        return (*self.v, self.t)


def parse_sdp(text: str, ctx: SdpContext) -> SdpElem:
    try:
        vec, t = text.split(";")
        v = tuple(int(p.strip()) for p in vec.split(","))
        return SdpElem(v, int(t.strip()), ctx)
    except ValueError as exc:
        raise ValueError(f"expected 'v1,...,vn;t', got {text!r}") from exc


# -- Cayley-graph search -------------------------------------------------


class HeisenbergGroup:
    """BFS adapter: keys are (x, y, z) triples; generators a^+-1, b^+-1."""

    @property
    def identity_key(self) -> Key:
        return (0, 0, 0)

    def neighbors(self, k: Key) -> Iterator[Key]:
        x, y, z = k
        yield (x + 1, y, z)
        yield (x - 1, y, z)
        yield (x, y + 1, z + x)
        yield (x, y - 1, z - x)

    def elem_of(self, k: Key) -> HeisElem:
        return HeisElem(*k)

    def inverse_key(self, k: Key) -> Key:
        return self.elem_of(k).inverse().key


class SdpGroup:
    """BFS adapter for Z^n x|_A Z; generators e_i^+-1, t^+-1."""

    def __init__(self, ctx: SdpContext):
        self.ctx = ctx
        self.n = ctx.n

    @property
    def identity_key(self) -> Key:
        return (0,) * self.n + (0,)

    def neighbors(self, k: Key) -> Iterator[Key]:
        v, t = k[:-1], k[-1]
        for col in zip(*self.ctx.power(t).rows):
            yield tuple(a + b for a, b in zip(v, col)) + (t,)
            yield tuple(a - b for a, b in zip(v, col)) + (t,)
        yield v + (t + 1,)
        yield v + (t - 1,)

    def elem_of(self, k: Key) -> SdpElem:
        return SdpElem(k[:-1], k[-1], self.ctx)


@dataclass
class BallTable:
    """Exact word lengths for the ball of a given radius."""

    radius: int
    lengths: Dict[Key, int]
    sphere_sizes: list[int]

    def word_length(self, key: Key) -> Optional[int]:
        return self.lengths.get(key)

    def __contains__(self, key: Key) -> bool:
        return key in self.lengths

    @property
    def ball_size(self) -> int:
        return len(self.lengths)

    def summary(self) -> dict:
        return {"radius": self.radius, "sphere_sizes": self.sphere_sizes,
                "ball_size": self.ball_size}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["coordinates", "length"])
            for key in sorted(self.lengths):
                writer.writerow([" ".join(str(c) for c in key), self.lengths[key]])


def _grow(group, frontier: list, dist: Dict[Key, int], r: int, limit: int,
          completed: int, message: str) -> list:
    """Store each unseen neighbour of the frontier in ``dist`` at distance r
    and return them; raise ResourceExhausted(message, completed_radius=
    completed) as soon as ``dist`` holds more than ``limit`` states."""
    nxt = []
    for k in frontier:
        for nb in group.neighbors(k):
            if nb not in dist:
                dist[nb] = r
                nxt.append(nb)
                if len(dist) > limit:
                    raise ResourceExhausted(message, completed_radius=completed)
    return nxt


def bfs_ball(group, radius: int, budget: int = DEFAULT_STATE_BUDGET) -> BallTable:
    """Exact word length for every element within the given radius.

    Deterministic: the result depends only on the level structure, not on
    traversal order.  Raises ResourceExhausted (with the radius completed so
    far) if more than ``budget`` states would be stored.
    """
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    dist: Dict[Key, int] = {group.identity_key: 0}
    sphere_sizes = [1]
    frontier = [group.identity_key]
    for r in range(1, radius + 1):
        frontier = _grow(group, frontier, dist, r, budget, r - 1,
                         f"state budget {budget} exceeded at radius {r}")
        sphere_sizes.append(len(frontier))
    return BallTable(radius, dist, sphere_sizes)


def bfs_word_length(group, g, max_radius: int,
                    budget: int = DEFAULT_STATE_BUDGET) -> Optional[int]:
    """Exact word length of g if it is at most max_radius, else None.

    g is a group element (it has ``key``).  Bidirectional search: balls
    grown around the identity and around g meet in the middle, doubling the
    reachable radius for single-target queries.  Each step grows the smaller
    frontier by one level (the identity side on ties) and looks its new
    nodes up on the other side.
    """
    if max_radius < 0:
        raise PreconditionError("max_radius must be nonnegative")
    if g.key == group.identity_key:
        return 0
    # one [distances, frontier, radius] per side: the identity's, then g's
    sides = [[{k: 0}, [k], 0] for k in (group.identity_key, g.key)]
    best = max_radius + 1  # no meeting yet
    while (done := sides[0][2] + sides[1][2]) < max_radius and best > done:
        side, other = sides if len(sides[0][1]) <= len(sides[1][1]) else sides[::-1]
        dist, frontier, r = side
        other_dist = other[0]
        r += 1
        nxt = _grow(group, frontier, dist, r, budget - len(other_dist), done,
                    f"state budget {budget} exceeded")
        side[1:] = nxt, r
        best = min([best] + [r + other_dist[k] for k in nxt if k in other_dist])
        if not nxt:
            break
    return best if best <= max_radius else None


class SharedBall:
    """One identity ball of an SdpGroup that answers many word lengths.

    The Cayley graph is left-invariant: d(g, x) = |g^-1 x|, so for every h
    the candidate |h| + |g h| bounds |g| from above.  ``word_length`` grows
    the ball B(R) lazily, one level at a time and never beyond radius
    ceil(max_radius/2), and scans h sphere by sphere for the best candidate
    b with g h in B(R).

    Midpoint invariant.  Let d = |g| and let R be the ball's radius while
    sphere s is scanned.  If s <= d <= s + R, a geodesic from 1 to g has a
    vertex x with |x| = d - s <= R; h = g^-1 x has |h| = d(g, x) = s and
    g h = x, so sphere s yields the candidate d.  If d < s, sphere d
    already yielded h = g^-1 with g h = 1.  So after sphere s every
    d <= s + R has been found.  The ball is grown to radius s + 1 before
    sphere s, so the midpoint of a geodesic, |h| = floor(d/2) and
    |g h| = ceil(d/2), is met for every d <= 2R: the ball's minimum is
    exact whenever it is at most 2R.

    Stops.  After sphere s, ``sure`` = s + R + 1, and d >= sure unless d
    has been found.  So a candidate b <= sure is exact, whether it comes at
    the end of sphere s or in the middle of sphere s + 1.  b starts at
    max_radius + 1, so the scan also ends, with None, once
    s + R >= max_radius: then d > max_radius.  That happens at the latest
    at sphere ceil(max_radius/2), scanned with the ball at that radius.

    The ball holds at most ``budget`` states.  A level that overruns it is
    removed again, so the ball stays at its last complete radius, and every
    later query that needs the next level raises ResourceExhausted again.
    """

    def __init__(self, group: SdpGroup, max_radius: int,
                 budget: int = DEFAULT_STATE_BUDGET):
        if max_radius < 0:
            raise PreconditionError("max_radius must be nonnegative")
        self.group = group
        self.max_radius = max_radius
        self.budget = budget
        self.dist: Dict[Key, int] = {group.identity_key: 0}
        self.spheres = [[group.identity_key]]

    def _extend(self) -> None:
        r = len(self.spheres)
        size = len(self.dist)
        try:
            nxt = _grow(self.group, self.spheres[-1], self.dist, r, self.budget, r - 1,
                        f"state budget {self.budget} exceeded at radius {r}")
        except ResourceExhausted:
            for k in list(islice(reversed(self.dist), len(self.dist) - size)):
                del self.dist[k]
            raise
        self.spheres.append(nxt)

    def _translates(self, g: SdpElem, sphere: list) -> Iterator[Key]:
        """The keys of g h for h in the sphere, one at a time."""
        if g.t == 0:  # g h is plain coordinate addition of the keys
            gk = g.key
            return (tuple(map(add, gk, h)) for h in sphere)
        return ((g * self.group.elem_of(h)).key for h in sphere)

    def word_length(self, g: SdpElem) -> Optional[int]:
        """Exact word length of g if it is at most max_radius, else None."""
        top = (self.max_radius + 1) // 2
        get = self.dist.get
        best = self.max_radius + 1  # no candidate yet
        sure = 0  # every length below this would have been found
        for s in range(top + 1):
            while len(self.spheres) <= min(s + 1, top):
                self._extend()
            for d in map(get, self._translates(g, self.spheres[s])):
                if d is not None and s + d < best:
                    best = s + d
                    if best <= sure:
                        break
            sure = s + len(self.spheres)  # s + R + 1
            if best <= sure:
                break
        return best if best <= self.max_radius else None
