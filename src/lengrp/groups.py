"""Group elements and the Cayley-graph word-length oracle.

Two families: the discrete Heisenberg group in upper-triangular coordinates
(x, y, z), and semidirect products Z^n x|_A Z with twist A in GL_n(Z).
Word lengths are computed by exact breadth-first search over the standard
symmetric generating sets.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
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

    name = "heisenberg"

    @property
    def identity_key(self) -> Key:
        return (0, 0, 0)

    def neighbors(self, k: Key) -> Iterator[Key]:
        x, y, z = k
        yield (x + 1, y, z)
        yield (x - 1, y, z)
        yield (x, y + 1, z + x)
        yield (x, y - 1, z - x)

    def key_of(self, g: HeisElem) -> Key:
        return g.key

    def elem_of(self, k: Key) -> HeisElem:
        return HeisElem(*k)

    def inverse_key(self, k: Key) -> Key:
        return self.elem_of(k).inverse().key


class SdpGroup:
    """BFS adapter for Z^n x|_A Z; generators e_i^+-1, t^+-1."""

    name = "sdp"

    def __init__(self, ctx: SdpContext):
        self.ctx = ctx
        self.n = ctx.n

    @property
    def identity_key(self) -> Key:
        return (0,) * self.n + (0,)

    def neighbors(self, k: Key) -> Iterator[Key]:
        v, t = k[:-1], k[-1]
        at = self.ctx.power(t)
        for i in range(self.n):
            col = tuple(at.rows[j][i] for j in range(self.n))
            yield tuple(a + b for a, b in zip(v, col)) + (t,)
            yield tuple(a - b for a, b in zip(v, col)) + (t,)
        yield v + (t + 1,)
        yield v + (t - 1,)

    def key_of(self, g: SdpElem) -> Key:
        return g.key

    def elem_of(self, k: Key) -> SdpElem:
        return SdpElem(k[:-1], k[-1], self.ctx)

    def inverse_key(self, k: Key) -> Key:
        return self.elem_of(k).inverse().key


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
        nxt = []
        for k in frontier:
            for nb in group.neighbors(k):
                if nb not in dist:
                    dist[nb] = r
                    nxt.append(nb)
                    if len(dist) > budget:
                        raise ResourceExhausted(
                            f"state budget {budget} exceeded at radius {r}",
                            completed_radius=r - 1,
                        )
        sphere_sizes.append(len(nxt))
        frontier = nxt
    return BallTable(radius, dist, sphere_sizes)


def bfs_word_length(group, g, max_radius: int,
                    budget: int = DEFAULT_STATE_BUDGET) -> Optional[int]:
    """Exact word length of g if it is at most max_radius, else None.

    Bidirectional search: balls grown around the identity and around g meet
    in the middle, doubling the reachable radius for single-target queries.
    """
    start = group.identity_key
    target = group.key_of(g) if hasattr(g, "key") else tuple(g)
    if target == start:
        return 0
    dist_a: Dict[Key, int] = {start: 0}
    dist_b: Dict[Key, int] = {target: 0}
    frontier_a, frontier_b = [start], [target]
    r_a = r_b = 0
    best: Optional[int] = None
    while r_a + r_b < max_radius:
        if best is not None and best <= r_a + r_b:
            return best
        # expand the smaller side
        if len(frontier_a) <= len(frontier_b):
            dist, other, frontier = dist_a, dist_b, frontier_a
            r_a += 1
            r = r_a
        else:
            dist, other, frontier = dist_b, dist_a, frontier_b
            r_b += 1
            r = r_b
        nxt = []
        for k in frontier:
            for nb in group.neighbors(k):
                if nb not in dist:
                    dist[nb] = r
                    nxt.append(nb)
                    if len(dist_a) + len(dist_b) > budget:
                        raise ResourceExhausted(
                            f"state budget {budget} exceeded",
                            completed_radius=r_a + r_b - 1,
                        )
                    if nb in other:
                        cand = r + other[nb]
                        if best is None or cand < best:
                            best = cand
        if dist is dist_a:
            frontier_a = nxt
        else:
            frontier_b = nxt
        if not nxt:
            break
    if best is not None and best <= max_radius:
        return best
    return None
