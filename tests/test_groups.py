import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lengrp.errors import DEFAULT_STATE_BUDGET, PreconditionError, ResourceExhausted
from lengrp.groups import (
    HEIS_A,
    HEIS_B,
    HEIS_C,
    HeisElem,
    HeisenbergGroup,
    SdpContext,
    SdpElem,
    SdpGroup,
    SharedBall,
    _bfs,
    bfs_ball,
    parse_heis,
)
from lengrp.matrices import IntMatrix

from search_reference import bfs_word_length, outside, parse_sdp
from test_matrices import PROPERTY_SETTINGS, Seven, elementary_products


def random_heis(rng, bound=5):
    return HeisElem(rng.randint(-bound, bound), rng.randint(-bound, bound),
                    rng.randint(-bound, bound))


def test_heis_group_laws():
    rng = random.Random(1)
    e = HeisElem.identity()
    for _ in range(50):
        g, h, k = (random_heis(rng) for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert g * e == g and e * g == g
        assert g * g.inverse() == e
        assert g.inverse().inverse() == g


def test_heis_commutator_is_central_generator():
    # a^-1 b^-1 a b = c
    comm = HEIS_A.inverse() * HEIS_B.inverse() * HEIS_A * HEIS_B
    assert comm == HEIS_C
    rng = random.Random(2)
    for _ in range(20):
        g = random_heis(rng)
        assert g * HEIS_C == HEIS_C * g


def test_heis_pow_closed_form():
    assert HeisElem(1, 1, 0) ** 3 == HeisElem(3, 3, 3)
    rng = random.Random(3)
    for _ in range(30):
        g = random_heis(rng)
        acc = HeisElem.identity()
        for k in range(7):
            assert g ** k == acc
            assert g ** (-k) == acc.inverse()
            acc = acc * g


def test_heis_conjugation_preserves_abelianization():
    rng = random.Random(4)
    for _ in range(30):
        g, h = random_heis(rng), random_heis(rng)
        c = g.conjugate_by(h)
        assert (c.x, c.y) == (g.x, g.y)


def test_parse_heis():
    assert parse_heis("1, -2, 3") == HeisElem(1, -2, 3)
    with pytest.raises(ValueError):
        parse_heis("1,2")
    with pytest.raises(ValueError):
        parse_heis("a,b,c")


HYP_CTX = SdpContext(IntMatrix.from_rows([[2, 1], [1, 1]]))


def test_sdp_context_validation():
    with pytest.raises(PreconditionError):
        SdpContext(IntMatrix.from_rows([[2, 0], [0, 1]]))


@pytest.mark.parametrize("bad", [1.5, True, "7"])
def test_element_coordinates_must_be_integers(bad):
    ctx = SdpContext(IntMatrix.from_rows([[2, 1], [1, 1]]))
    for make in (lambda: HeisElem(bad, 0, 0), lambda: HeisElem(0, 0, bad),
                 lambda: SdpElem((0, bad), 0, ctx), lambda: SdpElem((0, 0), bad, ctx)):
        with pytest.raises(PreconditionError, match="expected an integer"):
            make()


def test_index_coordinates_become_ints():
    ctx = SdpContext(IntMatrix.from_rows([[2, 1], [1, 1]]))
    g, h = HeisElem(Seven(), 0, 1), SdpElem((Seven(), 1), Seven(), ctx)
    assert g == HeisElem(7, 0, 1) and type(g.x) is int
    assert h == SdpElem((7, 1), 7, ctx) and type(h.v[0]) is type(h.t) is int


def test_sdp_group_laws():
    rng = random.Random(5)
    e = SdpElem((0, 0), 0, HYP_CTX)
    for _ in range(30):
        g = SdpElem((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2), HYP_CTX)
        h = SdpElem((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2), HYP_CTX)
        k = SdpElem((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2), HYP_CTX)
        assert (g * h) * k == g * (h * k)
        assert g * g.inverse() == e
        acc = e
        for p in range(5):
            assert g ** p == acc
            acc = acc * g


def test_sdp_twist_action():
    t = SdpElem((0, 0), 1, HYP_CTX)
    v = SdpElem((1, 0), 0, HYP_CTX)
    assert (t * v * t.inverse()).v == (2, 1)  # conjugation by t applies A


def test_sdp_mixed_contexts_rejected():
    other = SdpContext(IntMatrix.identity(2))
    g = SdpElem((1, 0), 0, HYP_CTX)
    h = SdpElem((1, 0), 0, other)
    assert g != h
    with pytest.raises(PreconditionError):
        g * h


def test_parse_sdp():
    g = parse_sdp("1, -2; 3", HYP_CTX)
    assert g.v == (1, -2) and g.t == 3
    with pytest.raises(ValueError):
        parse_sdp("1,2,3", HYP_CTX)


def test_heis_ball_goldens():
    table = bfs_ball(HeisenbergGroup(), 4)
    assert table.sphere_sizes == [1, 4, 12, 36, 82]
    assert table.ball_size == 135
    assert table.word_length((0, 0, 0)) == 0
    assert table.word_length((0, 0, 1)) == 4
    assert table.word_length((2, 1, 1)) == 3
    assert (1, 1, 1) in table and table.word_length((1, 1, 1)) == 2
    assert table.word_length((9, 9, 9)) is None


def test_ball_symmetric_under_inverse():
    group = HeisenbergGroup()
    table = bfs_ball(group, 6)
    for key, d in table.lengths.items():
        assert table.word_length(HeisElem(*key).inverse().key) == d


def test_ball_budget():
    with pytest.raises(ResourceExhausted) as err:
        bfs_ball(HeisenbergGroup(), 8, budget=50)
    assert err.value.completed_radius < 8
    with pytest.raises(PreconditionError):
        bfs_ball(HeisenbergGroup(), -1)


def test_ball_csv(tmp_path):
    table = bfs_ball(HeisenbergGroup(), 2)
    out = tmp_path / "ball.csv"
    table.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "coordinates,length"
    assert len(lines) == table.ball_size + 1
    assert table.summary() == {"radius": 2, "sphere_sizes": [1, 4, 12], "ball_size": 17}


def test_bidirectional_matches_ball():
    group = HeisenbergGroup()
    table = bfs_ball(group, 8)
    rng = random.Random(6)
    keys = rng.sample(sorted(table.lengths), 60)
    for key in keys:
        assert bfs_word_length(group, HeisElem(*key), 10) == table.lengths[key]


def test_bidirectional_bounds():
    group = HeisenbergGroup()
    assert bfs_word_length(group, HeisElem.identity(), 5) == 0
    # (0,0,9) has length 12 > 8
    assert bfs_word_length(group, HeisElem(0, 0, 9), 8) is None
    assert bfs_word_length(group, HeisElem(0, 0, 9), 12) == 12


def test_sdp_bidirectional_matches_ball():
    group = SdpGroup(HYP_CTX)
    table = bfs_ball(group, 5)
    rng = random.Random(7)
    keys = rng.sample(sorted(table.lengths), 40)
    for key in keys:
        assert bfs_word_length(group, table.group.elem_of(key), 6) == table.lengths[key]


def test_sdp_hyperbolic_compression():
    # the twist shortens large lattice vectors: d((16,0)) < 16
    group = SdpGroup(HYP_CTX)
    d = bfs_word_length(group, SdpElem((16, 0), 0, HYP_CTX), 16)
    assert d is not None and d < 16


@pytest.mark.parametrize("budget, message, completed", [
    (10, "state budget 10 exceeded at radius 2", 1),
    (50, "state budget 50 exceeded at radius 3", 2),
    (137, "state budget 137 exceeded at radius 5", 4),
    (1000, "state budget 1000 exceeded at radius 7", 6),
])
def test_ball_budget_pinned(budget, message, completed):
    with pytest.raises(ResourceExhausted) as err:
        bfs_ball(HeisenbergGroup(), 9, budget=budget)
    assert str(err.value) == message
    assert err.value.completed_radius == completed


@pytest.mark.parametrize("budget, completed", [(100, 5), (1000, 11)])
def test_bidirectional_budget_pinned(budget, completed):
    with pytest.raises(ResourceExhausted) as err:
        bfs_word_length(HeisenbergGroup(), HeisElem(3, 1, 20), 30, budget=budget)
    assert str(err.value) == f"state budget {budget} exceeded"
    assert err.value.completed_radius == completed
    assert bfs_word_length(HeisenbergGroup(), HeisElem(3, 1, 20), 30) == 14


def test_sdp_ball_goldens():
    table = bfs_ball(SdpGroup(HYP_CTX), 10)
    assert table.sphere_sizes == [1, 6, 26, 70, 170, 390, 858, 1834, 3922, 8270, 17270]
    assert table.ball_size == 32817


def test_bidirectional_rejects_negative_radius():
    with pytest.raises(PreconditionError):
        bfs_word_length(HeisenbergGroup(), HeisElem(0, 0, 0), -1)
    with pytest.raises(PreconditionError):
        SharedBall(SdpGroup(HYP_CTX), -1)


small = st.integers(-4, 4)
heis_elems = st.builds(HeisElem, small, small, small)
# twists drawn as elementary products in GL_2(Z) and GL_3(Z)
sdp_contexts = st.integers(2, 3).flatmap(lambda n: elementary_products(n, 4)).map(SdpContext)


def sdp_elems(ctx):
    return st.builds(SdpElem, st.tuples(*[small] * ctx.n), st.integers(-3, 3), st.just(ctx))


def check_group_laws(g, h, k, e):
    assert (g * h) * k == g * (h * k)
    assert g * g.inverse() == e and g.inverse() * g == e
    acc = e
    for p in range(5):
        assert g ** p == acc and g ** -p == acc.inverse()
        acc = acc * g


@PROPERTY_SETTINGS
@given(heis_elems, heis_elems, heis_elems)
def test_heis_group_laws_property(g, h, k):
    check_group_laws(g, h, k, HeisElem.identity())


@PROPERTY_SETTINGS
@given(st.data())
def test_sdp_group_laws_property(data):
    ctx = data.draw(sdp_contexts)
    g, h, k = (data.draw(sdp_elems(ctx)) for _ in range(3))
    check_group_laws(g, h, k, SdpElem((0,) * ctx.n, 0, ctx))


HEIS_BALL = bfs_ball(HeisenbergGroup(), 8)


@PROPERTY_SETTINGS
@given(heis_elems)
def test_bidirectional_matches_ball_on_heis_property(g):
    # None on both sides when the length exceeds the radius
    assert bfs_word_length(HeisenbergGroup(), g, 8) == HEIS_BALL.word_length(g.key)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_bidirectional_matches_ball_on_sdp_property(data):
    ctx = data.draw(sdp_contexts)
    group = SdpGroup(ctx)
    table = bfs_ball(group, 4)
    for _ in range(5):
        g = data.draw(sdp_elems(ctx))
        assert bfs_word_length(group, g, 4) == table.word_length(g.key)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_shared_ball_matches_bidirectional_property(data):
    # one ball answers every target; odd and even radii, t != 0, and None
    ctx = data.draw(sdp_contexts)
    max_radius = data.draw(st.integers(0, 8))
    group = SdpGroup(ctx)
    ball = SharedBall(group, max_radius)
    for _ in range(8):
        v = data.draw(st.tuples(*[st.integers(-2, 2)] * ctx.n))
        g = SdpElem(v, data.draw(st.sampled_from([-2, -1, 1, 2, 0])), ctx)
        assert ball.word_length(g) == bfs_word_length(group, g, max_radius)


def test_shared_ball_odd_lengths_at_their_own_radius():
    # a target of odd length d is found at max_radius = d, not read as None
    group = SdpGroup(HYP_CTX)
    table = bfs_ball(group, 7)
    rng = random.Random(11)
    for d in (1, 3, 5, 7):
        sphere = [k for k, r in table.lengths.items() if r == d]
        ball, short = SharedBall(group, d), SharedBall(group, d - 1)
        for key in rng.sample(sorted(sphere), min(len(sphere), 120)):
            assert ball.word_length(table.group.elem_of(key)) == d
            assert short.word_length(table.group.elem_of(key)) is None


def test_shared_ball_overrun_keeps_last_complete_radius():
    group = SdpGroup(HYP_CTX)
    ball = SharedBall(group, 12, budget=300)
    # radius 4 (273 states) holds; radius 5 needs 663.  The ball kept at
    # radius 4, with sphere 4 scanned, excludes every length d <= 8, and the
    # word e1^9 gives 9, so |e1^9| = 9; nothing settles |e1^10|
    for k in range(1, 10):
        assert ball.word_length(SdpElem((k, 0), 0, HYP_CTX)) == k
    for k in (10, 10):
        with pytest.raises(ResourceExhausted) as err:
            ball.word_length(SdpElem((k, 0), 0, HYP_CTX))
        assert str(err.value) == "state budget 300 exceeded at radius 5"
        assert err.value.completed_radius == 4
        assert ball.dist == bfs_ball(group, 4).lengths
        assert [len(s) for s in ball.spheres] == [1, 6, 26, 70, 170]
    assert ball.word_length(SdpElem((9, 0), 0, HYP_CTX)) == 9
    assert ball.word_length(SdpElem((3, 0), 0, HYP_CTX)) == 3


def sdp_generators(ctx):
    """e_1^+-1, ..., e_n^+-1, t^+-1: the order of SdpGroup.neighbors."""
    gens = []
    for i in range(ctx.n):
        e_i = SdpElem(tuple(1 if j == i else 0 for j in range(ctx.n)), 0, ctx)
        gens += (e_i, e_i.inverse())
    t = SdpElem((0,) * ctx.n, 1, ctx)
    return gens + [t, t.inverse()]


def tuple_ball(ctx, radius):
    """Word lengths by breadth-first search on tuple keys and the group law."""
    gens = sdp_generators(ctx)
    identity = SdpElem((0,) * ctx.n, 0, ctx)
    lengths, frontier = {identity.key: 0}, [identity]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for h in (g * s for s in gens):
                if h.key not in lengths:
                    lengths[h.key] = r
                    nxt.append(h)
        frontier = nxt
    return lengths


@PROPERTY_SETTINGS
@given(st.data())
def test_sdp_packed_keys_follow_the_group_law_property(data):
    ctx = data.draw(sdp_contexts)
    g = data.draw(sdp_elems(ctx))
    # the narrowest adapter that holds g's neighbours, or a much wider one
    base = SdpGroup(ctx)
    group = base.fit(base.extent(1, g.key) << data.draw(st.sampled_from([0, 70])))
    key = group.pack(g.key)
    assert group.unpack(key) == g.key and group.elem_of(key) == g
    assert [group.unpack(k) for k in group.neighbors(key)] == [
        (g * s).key for s in sdp_generators(ctx)]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_sdp_extent_bounds_translated_balls_property(data):
    ctx = data.draw(sdp_contexts)
    g = data.draw(sdp_elems(ctx))
    r = data.draw(st.integers(0, 3))
    group = SdpGroup(ctx)
    for coords in (None, g.key):
        origin = SdpElem(coords[:-1], coords[-1], ctx) if coords else SdpElem((0,) * ctx.n, 0, ctx)
        translated = [(origin * SdpElem(key[:-1], key[-1], ctx)).key for key in tuple_ball(ctx, r)]
        assert max(abs(c) for key in translated for c in key) <= group.extent(r, coords)


@pytest.mark.parametrize("k", [10 ** 7, -(10 ** 7)])
def test_sdp_ball_with_coordinates_beyond_64_bits(k, tmp_path):
    # entries of A^3 reach 10^21 > 2^64: a fixed 64-bit digit would carry
    ctx = SdpContext(IntMatrix.from_rows([[k, 1], [-1, 0]]))
    group = SdpGroup(ctx)
    table = bfs_ball(group, 4)
    reference = tuple_ball(ctx, 4)
    assert max(abs(c) for key in reference for c in key) > 2 ** 64
    assert table.group.bound > 2 ** 64  # the ball widened its keys as it grew
    assert {table.group.unpack(key): d for key, d in table.lengths.items()} == reference
    assert table.sphere_sizes == [sum(1 for d in reference.values() if d == r)
                                  for r in range(5)]
    out = tmp_path / "ball.csv"
    table.to_csv(out)
    assert out.read_text().splitlines()[1:] == [
        f"{' '.join(map(str, key))},{d}" for key, d in sorted(reference.items())]
    ball = SharedBall(group, 8)
    for key in random.Random(12).sample(sorted(reference), 40):
        g = SdpElem(key[:-1], key[-1], ctx)
        assert bfs_word_length(group, g, 4) == reference[key]
        assert ball.word_length(g) == reference[key]


def test_shared_ball_far_target_reads_none_without_aliasing():
    group = SdpGroup(HYP_CTX)
    table = bfs_ball(group, 4)
    keys = table.group
    radix = keys.pack((1, 0, 0))  # the key of e_1 is the radix 2^w
    # unchecked, (radix, 0; 0) would pack to radix^2, the key of e_2
    assert radix * radix == keys.pack((0, 1, 0))
    ball = SharedBall(group, 8)
    for t in (0, 1):
        far = SdpElem((radix, 0), t, HYP_CTX)
        assert keys.pack(far.key) is None
        assert ball.word_length(far) is None
        assert bfs_word_length(group, far, 8) is None
        assert table.word_length(far.key) is None and far.key not in table
    assert ball.group.bound == keys.bound  # the target did not widen the ball
    assert ball.word_length(SdpElem((0, 1), 0, HYP_CTX)) == 1


def test_far_sdp_target_reads_none_before_any_key():
    # every coordinate of the ball of radius 300 is at most extent(300), far
    # below 2^100000; unchecked, the search held 7.7 MB of such wide keys
    group = SdpGroup(HYP_CTX)
    assert group.extent(300) < 2 ** 100000
    for g in (SdpElem((2 ** 100000, 0), 0, HYP_CTX), SdpElem((1, 0), 301, HYP_CTX)):
        tracemalloc.start()
        try:
            assert bfs_word_length(group, g, 300, budget=300) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(sdp_contexts)
def test_no_element_of_a_ball_reads_as_outside_it(ctx):
    group = SdpGroup(ctx)
    table = bfs_ball(group, 3)
    for key, d in table.lengths.items():
        coords = table.group.unpack(key)
        assert not any(outside(group, coords, r, 300) for r in range(d, 5))
        if d:
            assert outside(group, coords, 0, 300)
    # the scan decides exactly |v_i| > extent(r), and |t| > r
    for r in range(5):
        e = group.extent(r)
        for i in range(ctx.n):
            v = [0] * ctx.n
            v[i] = -e
            assert not outside(group, (*v, r), r, 300)
            v[i] = e + 1
            assert outside(group, (*v, 0), r, 300)
        assert outside(group, (*[0] * ctx.n, r + 1), r, 300)


def test_heisenberg_targets_beyond_their_coordinates_are_still_searched():
    # extent is 0 for Heisenberg keys and bounds nothing: the central
    # power c^30 has z = 30 yet length 2 ceil(2 sqrt(30)) = 22
    assert bfs_word_length(HeisenbergGroup(), HEIS_C ** 30, 22) == 22
    assert bfs_word_length(HeisenbergGroup(), HEIS_C ** 30, 21) is None


def test_sdp_key_width_follows_the_reached_radius():
    # the budget stops the ball near radius 5, long before the radius asked for
    with pytest.raises(ResourceExhausted) as err:
        bfs_ball(SdpGroup(HYP_CTX), 10 ** 9, budget=300)
    assert err.value.completed_radius == 4
    ball = SharedBall(SdpGroup(HYP_CTX), 10 ** 9, budget=300)
    assert ball.word_length(SdpElem((3, 0), 0, HYP_CTX)) == 3
    assert ball.group.bound == 2 ** 63 - 1
    assert ball.word_length(SdpElem((0,) * 2, 10 ** 9 + 1, HYP_CTX)) is None


def test_sdp_context_powers_invert_once(monkeypatch):
    conner = IntMatrix.from_rows([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 2]])
    expected = {t: conner.mat_pow(t) for t in range(-12, 13)}
    inversions = []
    inverse = IntMatrix.inverse
    monkeypatch.setattr(IntMatrix, "inverse", lambda m: inversions.append(m) or inverse(m))
    ctx = SdpContext(conner)
    # neighbouring powers, jumps that square, and repeats
    for t in random.Random(13).sample(range(-9, 10), 19) + [-12, 12, -3, 11]:
        assert ctx.power(t) == expected[t]
    assert len(inversions) == 1


def two_spheres(group, radius, budget=DEFAULT_STATE_BUDGET):
    """The sphere-count path of ``lengrp ball``: (dist, sphere_sizes, group)."""
    return _bfs(group, radius, budget, whole=False)


def last_two_spheres(table):
    """The coordinates and lengths of the table's last two spheres."""
    return {table.group.unpack(k): d for k, d in table.lengths.items()
            if d >= table.radius - 1}


def test_two_spheres_match_the_heis_ball():
    for radius in range(15):
        dist, sizes, group = two_spheres(HeisenbergGroup(), radius)
        table = bfs_ball(HeisenbergGroup(), radius)
        assert sizes == table.sphere_sizes
        assert {group.unpack(k): d for k, d in dist.items()} == last_two_spheres(table)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(sdp_contexts, st.integers(4, 5))
@example(SdpContext(IntMatrix.from_rows([[10 ** 7, 1], [-1, 0]])), 4)  # keys pass 64 bits
def test_two_spheres_match_the_sdp_ball_property(ctx, radius):
    # extent(4) >= 4 exceeds the starting bound 3: each draw widens its keys
    start = SdpGroup(ctx)
    dist, sizes, group = two_spheres(start, radius)
    table = bfs_ball(start, radius)
    assert group.bound == table.group.bound > start.bound
    assert sizes == table.sphere_sizes
    assert {group.unpack(k): d for k, d in dist.items()} == last_two_spheres(table)


def outcome(sizes):
    """sizes(), or the type, message and completed radius of its overrun."""
    try:
        return sizes()
    except ResourceExhausted as exc:
        return type(exc), str(exc), exc.completed_radius


@pytest.mark.parametrize("group", [HeisenbergGroup(), SdpGroup(HYP_CTX)], ids=["heis", "sdp"])
def test_two_spheres_overrun_the_budget_where_the_ball_does(group):
    # the budget counts the states deleted from the two spheres' dict
    sizes = bfs_ball(group, 6).sphere_sizes
    for r in range(7):
        ball_size = sum(sizes[:r + 1])
        for budget in (ball_size - 1, ball_size, ball_size + 1):
            whole = outcome(lambda: bfs_ball(group, 6, budget).sphere_sizes)
            assert outcome(lambda: two_spheres(group, 6, budget)[1]) == whole
            if r == 6:
                assert whole == (sizes if budget >= ball_size else (
                    ResourceExhausted, f"state budget {budget} exceeded at radius 6", 5))


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_spheres_take_less_than_half_the_ball_memory():
    # both peak at the end of the last level: the ball holds 99,689 states,
    # the two spheres' dict 44,236 (spheres 20, 21 and 22).  At radius 16
    # that is 15,710 of 27,910 states, and the peak ratio is 0.55
    two = traced_peak(lambda: two_spheres(HeisenbergGroup(), 22))
    whole = traced_peak(lambda: bfs_ball(HeisenbergGroup(), 22))
    assert two < whole / 2
