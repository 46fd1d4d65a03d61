"""Group elements and the Cayley-graph word-length oracle.

Two families: the discrete Heisenberg group in upper-triangular coordinates
(x, y, z), and semidirect products Z^n x|_A Z with twist A in GL_n(Z).
Word lengths over the standard symmetric generating sets come from exact
breadth-first search: a ball (or its sphere sizes, from its last two
spheres), and a shared ball that answers many targets by translation.
The shared ball stops early on bounds that need no search: the length of
an explicit word above, and coordinates that place a target outside the
radius asked for.
"""
from __future__ import annotations

import sys
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Optional

from .errors import (
    DEFAULT_STATE_BUDGET,
    PreconditionError,
    ResourceExhausted,
    _as_int,
    _Frozen,
    _int_tuple,
    _Record,
)

if TYPE_CHECKING:
    from .matrices import IntMatrix

Key = Hashable  # a coordinate tuple, or an SdpGroup's packed int
_HASH_BITS = sys.hash_info.modulus.bit_length()  # ints hash modulo 2^61 - 1


# -- Heisenberg ----------------------------------------------------------


class HeisElem(_Frozen):
    """Heisenberg element; product law (x1,y1,z1)(x2,y2,z2) =
    (x1+x2, y1+y2, z1+z2+x1*y2)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        if not type(x) is type(y) is type(z) is int:
            x, y, z = _as_int(x), _as_int(y), _as_int(z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

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
        # the twist's own type: groups does not import matrices
        self._powers: Dict[int, IntMatrix] = {0: type(matrix).identity(matrix.n)}
        self._max_entries: Dict[int, int] = {}

    @cached_property
    def inverse(self) -> IntMatrix:
        return self.matrix.inverse()

    def power(self, t: int) -> IntMatrix:
        """A^t: one product from a cached A^(t -+ 1), else by squaring."""
        p = self._powers.get(t)
        if p is None:
            base = self.matrix if t > 0 else self.inverse
            prev = self._powers.get(t - 1 if t > 0 else t + 1)
            p = prev @ base if prev is not None else base.mat_pow(abs(t))
            self._powers[t] = p
        return p

    def max_entry(self, t: int) -> int:
        """The largest absolute entry of A^t."""
        m = self._max_entries.get(t)
        if m is None:
            m = self._max_entries[t] = max(abs(x) for row in self.power(t).rows for x in row)
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, SdpContext) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)


class SdpElem(_Frozen):
    """Element (v, t) with law (v1,t1)(v2,t2) = (v1 + A^t1 v2, t1+t2)."""

    __slots__ = ("v", "t", "ctx")

    def __init__(self, v: tuple[int, ...], t: int, ctx: SdpContext):
        if len(v) != ctx.n:
            raise PreconditionError("lattice part has wrong dimension")
        object.__setattr__(self, "v", _int_tuple(v))
        object.__setattr__(self, "t", t if type(t) is int else _as_int(t))
        object.__setattr__(self, "ctx", ctx)

    def _check(self, other: "SdpElem") -> None:
        if self.ctx != other.ctx:
            raise PreconditionError("elements live over different twist matrices")

    def __mul__(self, other: "SdpElem") -> "SdpElem":
        self._check(other)
        av = self.ctx.power(self.t).apply(other.v) if self.t else other.v
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


# -- Cayley-graph search -------------------------------------------------


class HeisenbergGroup:
    """BFS adapter: keys are (x, y, z) triples; generators a^+-1, b^+-1."""

    pack = unpack = staticmethod(tuple)

    @property
    def identity_key(self) -> Key:
        return (0, 0, 0)

    def fit(self, bound: int) -> "HeisenbergGroup":
        return self  # keys are the coordinates themselves: exact at every size

    def extent(self, r: int, coords: Optional[tuple] = None) -> int:
        return 0

    def neighbors(self, k: Key) -> tuple:
        x, y, z = k
        return (x + 1, y, z), (x - 1, y, z), (x, y + 1, z + x), (x, y - 1, z - x)

    def elem_of(self, k: Key) -> HeisElem:
        return HeisElem(*k)

    def word_bound(self, g: HeisElem, max_radius: int) -> Optional[int]:
        """None if |x| + |y| > max_radius, which puts g beyond max_radius: a
        letter moves the image (x, y) in the abelianization Z^2 by one step.
        Else max_radius + 1 (no word is assumed)."""
        return None if abs(g.x) + abs(g.y) > max_radius else max_radius + 1

    def reach(self, g: HeisElem, extent: int) -> int:
        return 0  # keys are the coordinates themselves: nothing to widen

    def translates(self, g: HeisElem, sphere: list) -> Iterator[Key]:
        """The keys of g h for h in the sphere, by the product law."""
        gx, gy, gz = g.x, g.y, g.z
        return ((gx + x, gy + y, gz + z + gx * y) for x, y, z in sphere)


class SdpGroup:
    """BFS adapter for Z^n x|_A Z; generators e_i^+-1, t^+-1.

    A key is one int: the balanced base-2^w digits of (t, v_1, ..., v_n),
    lowest first, key(v, t) = t + sum_i v_i 2^(w i).  key is linear, so
    key(x) + key(y) = key(x + y) for all integer vectors, and a neighbour is
    one addition: key(v, t) + key(+-A^t e_i, 0) or key(v, t) +- 1, from a
    step table cached per level t.  Digits in [-2^(w-1), 2^(w-1)) are
    unique, so keys are injective on the box of coordinates of absolute
    value at most ``bound`` = 2^(w-1) - 1; ``pack`` returns None outside it.

    The searches keep every key they form inside the box.  Before a level
    could leave it, a search takes ``fit(extent)``, an adapter over the
    same twist with a wider w, and repacks the keys it holds.  So the width
    follows the radius a search has reached, and the coordinates of its
    target, never the radius it was asked for.  ``SdpGroup(ctx)`` starts
    narrow; ``bound`` is the coordinate bound ``fit`` asks for.

    Extent.  Let m(s) be the largest absolute entry of A^s.  A word h of
    length <= r has |t_h| <= r and v_h = a signed sum of at most r columns
    of A^s, one for each letter e_i^+-1, where s is the t of the prefix
    before that letter, so |s| < r.  Then g h = (v_g + A^t_g v_h, t_g + t_h)
    and A^t_g v_h sums at most r columns of A^(t_g + s), so every
    coordinate of g h is at most
    extent(r, g) = max(|t_g| + r, max_i |v_g,i| + r max_{|s| < r} m(t_g + s)).
    With g = 1 that bounds the ball of radius r.

    Why w = 3 modulo 61: Python hashes an int modulo 2^61 - 1, so the
    digits then enter the hash at bit offsets 0, 3, 6, ... and a dict's
    slots depend on every coordinate.  At w = 30 they would depend on t
    alone, and look-ups would probe long chains.
    """

    identity_key = 0

    def __init__(self, ctx: SdpContext, bound: int = 0):
        self.ctx = ctx
        self.n = ctx.n
        width = abs(bound).bit_length() + 1  # |bound| < 2^(w-1)
        self._width = width + (3 - width) % _HASH_BITS
        self._half = 1 << (self._width - 1)
        self._mask = (1 << self._width) - 1
        self.bound = self._half - 1
        self._steps: Dict[int, list[int]] = {}

    def fit(self, bound: int) -> "SdpGroup":
        """This adapter if its keys hold every coordinate up to bound, else
        the narrowest one over the same twist that does."""
        return self if bound <= self.bound else SdpGroup(self.ctx, bound)

    def extent(self, r: int, coords: Optional[tuple] = None) -> int:
        """extent(r, g) of the class docstring, for g = (v_1, ..., v_n, t)
        or the identity."""
        *v, t = coords or (0,)
        top = max((self.ctx.max_entry(t + s) for s in range(1 - r, r)), default=0)
        return max(abs(t) + r, max(map(abs, v), default=0) + r * top)

    def _level_steps(self, t: int) -> list[int]:
        steps = []
        for col in zip(*self.ctx.power(t).rows):
            s = sum(c << (self._width * i) for i, c in enumerate(col, 1))
            steps += (s, -s)
        steps += (1, -1)
        self._steps[t] = steps
        return steps

    def neighbors(self, k: int) -> list[int]:
        t = ((k + self._half) & self._mask) - self._half
        return [k + s for s in self._steps.get(t) or self._level_steps(t)]

    def pack(self, coords) -> Optional[int]:
        """The key of (v_1, ..., v_n, t), or None outside the box."""
        *v, t = coords
        if len(v) != self.n or max(map(abs, coords)) > self.bound:
            return None
        return t + sum(x << (self._width * i) for i, x in enumerate(v, 1))

    def unpack(self, k: int) -> tuple:
        """The coordinates (v_1, ..., v_n, t) of a key."""
        digits = []
        for _ in range(self.n + 1):
            d = ((k + self._half) & self._mask) - self._half
            digits.append(d)
            k = (k - d) >> self._width
        return (*digits[1:], digits[0])

    def elem_of(self, k: int) -> SdpElem:
        *v, t = self.unpack(k)
        return SdpElem(tuple(v), t, self.ctx)

    def word_bound(self, g: SdpElem, max_radius: int) -> Optional[int]:
        """None if |t| > max_radius, which puts g beyond max_radius: a letter
        moves t by at most one.  Else the smaller of max_radius + 1 and
        |v|_1 + |t|, the length of the word e_1^v_1 ... e_n^v_n t^t."""
        if abs(g.t) > max_radius:
            return None
        return min(max_radius + 1, sum(map(abs, g.v)) + abs(g.t))

    def reach(self, g: SdpElem, extent: int) -> Optional[int]:
        """The coordinate bound that the keys of g h need, for h in a ball
        with no coordinate above extent; None if no such g h lies in it."""
        if g.t:
            return 0  # g h is packed from the group law, None outside the box
        far = max(map(abs, g.v))  # g h = (v_g + v_h, t_h)
        if far > 2 * extent:  # |v_g + v_h| > extent for every h
            return None
        return far + extent  # <= 3 extent

    def translates(self, g: SdpElem, sphere: list) -> Iterable[Optional[int]]:
        """The keys of g h for h in the sphere, or None for those outside
        the key box (they are outside the ball)."""
        if g.t == 0:  # the keys add
            return map(self.pack(g.key).__add__, sphere)
        pack, elem_of = self.pack, self.elem_of
        return (pack((g * elem_of(h)).key) for h in sphere)


class BallTable(_Record):
    """Exact word lengths for the ball of a given radius, keyed by the keys
    of ``group``, the adapter the ball was packed with (for SDP a wider
    copy of the searched one once the ball outgrew its width); look-ups
    take coordinate tuples."""

    __slots__ = ("radius", "lengths", "sphere_sizes", "group")

    def word_length(self, coords: tuple) -> Optional[int]:
        return self.lengths.get(self.group.pack(coords))

    def __contains__(self, coords: tuple) -> bool:
        return self.group.pack(coords) in self.lengths

    @property
    def ball_size(self) -> int:
        return len(self.lengths)

    def summary(self) -> dict:
        return {"radius": self.radius, "sphere_sizes": self.sphere_sizes,
                "ball_size": self.ball_size}

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["coordinates", "length"])
            unpack = self.group.unpack
            for coords, d in sorted((unpack(k), d) for k, d in self.lengths.items()):
                writer.writerow([" ".join(map(str, coords)), d])


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


def _refit(group, bound: int, dicts: list, lists: list):
    """``group.fit(bound)``; when that is a wider adapter, the keys of the
    given dicts and lists are repacked into it in place, in their order."""
    wider = group.fit(bound)
    if wider is not group:
        def move(k):
            return wider.pack(group.unpack(k))

        for dist in dicts:
            items = [(move(k), d) for k, d in dist.items()]
            dist.clear()
            dist.update(items)
        for keys in lists:
            keys[:] = map(move, keys)
    return wider


def _check_radius(radius: int, name: str) -> None:
    if radius < 0:
        raise PreconditionError(f"{name} must be nonnegative")


def _bfs(group, radius: int, budget: int, whole: bool) -> tuple:
    """The level loop of ``bfs_ball``: (dist, sphere_sizes, group) of the
    ball of the given radius.  Unless ``whole``, dist keeps only the last
    two spheres: a neighbour of sphere r lies in sphere r - 1, r or r + 1,
    so sphere r - 2 is deleted once sphere r is grown.  The budget still
    counts the deleted states, so it overruns where the whole ball would."""
    _check_radius(radius, "radius")
    dist: Dict[Key, int] = {group.identity_key: 0}
    sphere_sizes = [1]
    frontier = [group.identity_key]
    dropped = 0  # states deleted from dist
    for r in range(1, radius + 1):
        group = _refit(group, group.extent(r), [dist], [frontier])
        frontier = _grow(group, frontier, dist, r, budget - dropped, r - 1,
                         f"state budget {budget} exceeded at radius {r}")
        sphere_sizes.append(len(frontier))
        if not whole and r > 1:
            for k in list(islice(dist, sphere_sizes[r - 2])):
                del dist[k]
            dropped += sphere_sizes[r - 2]
    return dist, sphere_sizes, group


def bfs_ball(group, radius: int, budget: int = DEFAULT_STATE_BUDGET) -> BallTable:
    """Exact word length for every element within the given radius.

    Deterministic: the result depends only on the level structure, not on
    traversal order.  Raises ResourceExhausted (with the radius completed so
    far) if more than ``budget`` states would be stored.
    """
    return BallTable(radius, *_bfs(group, radius, budget, whole=True))


class SharedBall:
    """One identity ball of a group adapter that answers many word lengths.

    The Cayley graph is left-invariant: d(g, x) = |g^-1 x|, so for every h
    the candidate |h| + |g h| bounds |g| from above.  Nothing below uses
    more than that, so the ball serves any adapter, Heisenberg or SDP.
    ``word_length`` grows the ball B(R) lazily, one level at a time and
    never beyond radius ceil(max_radius/2), and scans h sphere by sphere for
    the best candidate b with g h in B(R).  A target already in the ball
    reads its distance there, which is exact, without a scan.

    The adapter supplies what depends on the group:
    ``word_bound(g, max_radius)``, None when g's coordinates alone place it
    beyond max_radius, else the starting b (at most max_radius + 1, the
    length of an explicit word where the adapter knows one);
    ``reach(g, extent)``, the coordinate bound the keys of g h need for h
    in a ball of that extent, or None when no g h lies in the ball (the
    ball widens its keys to it first); and ``translates(g, sphere)``, the
    keys of g h, or None for one outside the key box.

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
    ``word_bound``, at most max_radius + 1, so the scan also ends, with
    None, once s + R >= max_radius: then d > max_radius.  That happens at
    the latest at sphere ceil(max_radius/2), scanned with the ball at that
    radius.

    The ball holds at most ``budget`` states.  A level that overruns it is
    removed again, so the ball stays at its last complete radius.  When
    level s + 1 overruns, sphere s is still scanned with R = s: that
    settles every d <= 2s, and a candidate b <= sure = 2s + 1 is returned,
    the word's length included.
    Otherwise ResourceExhausted is raised, and again by every later query
    that gets that far.
    """

    def __init__(self, group, max_radius: int, budget: int = DEFAULT_STATE_BUDGET):
        _check_radius(max_radius, "max_radius")
        self.group = group  # replaced by a wider adapter as the ball grows
        self.max_radius = max_radius
        self.budget = budget
        self.dist: Dict[Key, int] = {group.identity_key: 0}
        self.spheres = [[group.identity_key]]
        self.extent = 0  # no coordinate of the ball exceeds this

    def _extend(self) -> None:
        r = len(self.spheres)
        extent = self.group.extent(r)
        self.group = _refit(self.group, extent, [self.dist], self.spheres)
        size = len(self.dist)
        try:
            nxt = _grow(self.group, self.spheres[-1], self.dist, r, self.budget, r - 1,
                        f"state budget {self.budget} exceeded at radius {r}")
        except ResourceExhausted:
            for k in list(islice(reversed(self.dist), len(self.dist) - size)):
                del self.dist[k]
            raise
        self.spheres.append(nxt)
        self.extent = extent

    def _translates(self, g, sphere: list) -> Iterable[Optional[Key]]:
        reach = self.group.reach(g, self.extent)
        if reach is None:
            return ()
        self.group = _refit(self.group, reach, [self.dist], self.spheres)
        return self.group.translates(g, sphere)

    def word_length(self, g) -> Optional[int]:
        """Exact word length of g if it is at most max_radius, else None."""
        best = self.group.word_bound(g, self.max_radius)
        if best is None:
            return None
        get = self.dist.get
        known = get(self.group.pack(g.key))
        if known is not None:
            return known
        top = (self.max_radius + 1) // 2
        sure = 0  # every length below this would have been found
        for s in range(top + 1):
            overrun = None
            try:
                while len(self.spheres) <= min(s + 1, top):
                    self._extend()
            except ResourceExhausted as exc:
                overrun = exc  # the ball keeps radius s
            for d in map(get, self._translates(g, self.spheres[s])):
                if d is not None and s + d < best:
                    best = s + d
                    if best <= sure:
                        break
            sure = s + len(self.spheres)  # s + R + 1
            if best <= sure:
                break
            if overrun is not None:
                raise overrun
        return best if best <= self.max_radius else None
