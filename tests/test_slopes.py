import copy
import pickle
import sys
from math import gcd
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareyflats import slopes
from fareyflats.geodesics import bfs_distance, geodesic_count, geodesics
from fareyflats.slopes import (
    INFINITY,
    Slope,
    adjacent,
    apply_unimodular,
    det,
    distance,
    neighbors,
    slope_from_direction,
    slopes_in_interval,
    slopes_up_to,
)


class TestCanonicalForm:
    def test_reduction(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-6, 4) == Slope(-3, 2)

    def test_sign_carried_by_numerator(self):
        s = Slope(3, -2)
        assert (s.p, s.q) == (-3, 2)

    def test_infinity_collapses(self):
        assert Slope(5, 0) == INFINITY
        assert Slope(-1, 0) == INFINITY

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_idempotent(self):
        s = Slope(10, -15)
        assert Slope(s.p, s.q) == s

    def test_parse_round_trip(self):
        for text in ["1/0", "0/1", "-3/7", "2/4"]:
            s = Slope.parse(text)
            assert Slope.parse(str(s)) == s

    def test_parse_rejects_garbage(self):
        # fixture JSON can put a number or null where a slope belongs
        for text in ["3", "1/2/3", "a/b", "0/0", 3, None, ["0/1"]]:
            with pytest.raises(ValueError):
                Slope.parse(text)

    def test_parse_names_the_digit_limit_and_quotes_a_bounded_prefix(self):
        text = "1/" + "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError, match="integer string-conversion limit") as info:
            Slope.parse(text)
        assert len(str(info.value)) < 200
        with pytest.raises(ValueError, match="must be written p/q") as info:
            Slope.parse("1/" + "x" * 5000)
        assert len(str(info.value)) < 200

    def test_height(self):
        assert INFINITY.height == 1
        assert Slope(-7, 3).height == 7
        assert Slope(2, 5).height == 5


class TestAdjacency:
    def test_integers_adjacent_to_infinity(self):
        for n in range(-5, 6):
            assert adjacent(Slope(n, 1), INFINITY)

    def test_farey_neighbours(self):
        assert adjacent(Slope(1, 2), Slope(1, 3))
        assert adjacent(Slope(1, 2), Slope(0, 1))
        assert not adjacent(Slope(1, 3), Slope(2, 3))

    def test_det_antisymmetry(self):
        a, b = Slope(3, 5), Slope(-2, 7)
        assert det(a, b) == -det(b, a)


class TestNeighbors:
    def test_neighbors_of_half_height_five(self):
        got = set(neighbors(Slope(1, 2), 5))
        expected = {
            Slope(0, 1),
            Slope(1, 1),
            Slope(1, 3),
            Slope(2, 3),
            Slope(2, 5),
            Slope(3, 5),
        }
        assert got == expected

    def test_neighbors_of_infinity(self):
        got = neighbors(INFINITY, 3)
        assert got == sorted(
            (Slope(n, 1) for n in range(-3, 4)), key=Slope.sort_key
        )

    def test_bound_below_height_rejected(self):
        with pytest.raises(ValueError):
            neighbors(Slope(1, 5), 3)

    def test_symmetry_small(self):
        verts = slopes_up_to(6)
        table = {v: set(neighbors(v, 6)) for v in verts}
        for v in verts:
            for w in table[v]:
                assert v in table[w]

    def test_matches_brute_force(self):
        verts = slopes_up_to(5)
        for v in verts:
            brute = {w for w in verts if w != v and adjacent(v, w)}
            assert set(neighbors(v, 5)) == brute

    @pytest.mark.parametrize("bound", [*range(1, 13), 40])
    def test_det_two_mates_match_the_pool_scan(self, bound):
        # the seeded couple suite draws from this list, so it must be the
        # scan's list, in the scan's (sort_key) order
        pool = slopes_up_to(bound)
        for u in pool:
            scan = [v for v in pool if abs(u.p * v.q - u.q * v.p) == 2]
            assert neighbors(u, bound, 2) == scan

    def test_pool_height_below_one_rejected(self):
        with pytest.raises(ValueError, match="height bound must be >= 1"):
            slopes_up_to(0)

    def test_height_zero_has_no_neighbour_pairs(self):
        # The early return needs a zero coordinate (0/1 or 1/0), whose
        # fixed cofactor is +-1, above the height: only height 0 reaches it.
        assert list(slopes._neighbor_pairs(1, 0, 0)) == []
        assert list(slopes._neighbor_pairs(0, 1, 0)) == []


class TestDistance:
    def test_identity(self):
        assert distance(Slope(3, 7), Slope(3, 7)) == 0

    def test_adjacent_pairs(self):
        assert distance(Slope(0, 1), INFINITY) == 1
        assert distance(Slope(1, 2), Slope(1, 3)) == 1

    def test_frozen_values(self):
        assert distance(Slope(1, 2), INFINITY) == 2
        assert distance(Slope(-1, 1), Slope(1, 1)) == 2
        assert distance(Slope(2, 5), INFINITY) == 3

    def test_symmetry(self):
        pairs = [
            (Slope(3, 8), Slope(-2, 7)),
            (Slope(5, 12), INFINITY),
            (Slope(-4, 9), Slope(4, 9)),
        ]
        for a, b in pairs:
            assert distance(a, b) == distance(b, a)

    def test_negation_is_isometry(self):
        items = [s for s in slopes_up_to(7)]
        for a in items:
            for b in items:
                assert distance(a, b) == distance(-a, -b)

    def test_triangle_inequality_sample(self):
        verts = slopes_up_to(5)
        trip = [
            (verts[i], verts[j], verts[k])
            for i in range(0, len(verts), 7)
            for j in range(1, len(verts), 11)
            for k in range(2, len(verts), 13)
        ]
        for a, b, c in trip:
            assert distance(a, c) <= distance(a, b) + distance(b, c)


class TestUnimodularAction:
    def test_preserves_adjacency(self):
        m = (2, 1, 1, 1)
        verts = slopes_up_to(4)
        for a in verts:
            for b in verts:
                if adjacent(a, b):
                    assert adjacent(apply_unimodular(m, a), apply_unimodular(m, b))

    def test_preserves_distance(self):
        m = (1, 2, 0, 1)
        for a in slopes_up_to(4):
            for b in slopes_up_to(4):
                assert distance(
                    apply_unimodular(m, a), apply_unimodular(m, b)
                ) == distance(a, b)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            apply_unimodular((2, 0, 0, 1), Slope(1, 1))


def test_slope_from_direction():
    assert slope_from_direction((2, 1)) == Slope(1, 2)
    assert slope_from_direction((0, -3)) == INFINITY
    assert slope_from_direction((-4, -2)) == Slope(1, 2)
    with pytest.raises(ValueError):
        slope_from_direction((0, 0))


def test_slopes_in_interval():
    from fractions import Fraction

    got = slopes_in_interval(Fraction(-1), Fraction(1), 3)
    assert INFINITY not in got
    assert Slope(-1, 1) in got and Slope(1, 1) in got
    assert Slope(2, 3) in got and Slope(2, 1) not in got


def slope_strategy(bound: int):
    pairs = st.tuples(st.integers(-bound, bound), st.integers(0, bound))
    return pairs.filter(lambda t: t != (0, 0)).map(lambda t: Slope(*t))


@st.composite
def unimodular_matrices(draw):
    """Products of [[k, 1], [1, 0]] (determinant -1), which generate GL2(Z)."""
    m0, m1, m2, m3 = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-(10**6), 10**6), max_size=6)):
        m0, m1, m2, m3 = m0 * k + m1, m0, m2 * k + m3, m2
    return (m0, m1, m2, m3)


BIG = slope_strategy(10**12)


class TestDistanceProperties:
    @given(BIG, BIG, unimodular_matrices())
    def test_invariant_under_unimodular_maps(self, a, b, m):
        assert distance(apply_unimodular(m, a), apply_unimodular(m, b)) == distance(a, b)

    @given(BIG, BIG)
    def test_symmetric(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(BIG, BIG, BIG)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c)

    @settings(deadline=None)
    @given(slope_strategy(12), slope_strategy(12))
    def test_matches_bfs_oracle(self, a, b):
        assert distance(a, b) == bfs_distance(a, b, 24)

    def test_no_module_memo(self):
        distance(Slope(1, 10**6), INFINITY)
        assert not hasattr(slopes, "_DIST_TO_INFINITY")

    def test_long_partial_quotients(self):
        # [0; n] is two steps from 1/0 and [0; n, k] three, for n, k >= 2.
        n = 10**9
        assert distance(Slope(1, n), INFINITY) == 2
        assert distance(Slope(n + 1, n * n + n + 1), INFINITY) == 3

    @settings(deadline=None)
    @given(BIG, BIG)
    def test_matches_the_ladder(self, a, b):
        # The geodesics are read off the fans after _frame; the distance
        # kernel shares no code with that walk.
        assume(geodesic_count(a, b) <= 4096)
        assert distance(a, b) == geodesics(a, b, 1).length


INTS = st.integers(-(10**12), 10**12)
NONZERO = INTS.filter(bool)


class TestCanonicalFormProperties:
    @given(BIG)
    def test_parse_round_trip(self, s):
        assert Slope.parse(str(s)) == s

    @given(INTS, INTS, NONZERO)
    def test_common_factors_cancel(self, p, q, k):
        assume((p, q) != (0, 0))
        s = Slope(p, q)
        assert Slope(k * p, k * q) == s
        assert Slope(s.p, s.q) == s  # idempotent: equality is field equality
        assert s.q > 0 or (s.p, s.q) == (1, 0)

    @given(NONZERO)
    def test_every_vertical_vector_is_infinity(self, p):
        s = Slope(p, 0)
        assert s == INFINITY and (s.p, s.q) == (1, 0) and str(s) == "1/0"

    @given(
        st.one_of(
            st.text(st.characters(blacklist_characters="/")),
            st.lists(st.text(), min_size=3).map("/".join),
            st.tuples(
                st.text(st.characters(whitelist_categories=("L",)), min_size=1),
                st.integers(),
            ).map(lambda t: f"{t[0]}/{t[1]}"),
            st.tuples(st.integers(), st.sampled_from(["", "x", "1.5", "/"])).map(
                lambda t: f"{t[0]}/{t[1]}"
            ),
            st.sampled_from(["0/0", "-0/0", " 0 / 0 ", "0/-0", "+0/0"]),
        )
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            Slope.parse(text)


class TestValueType:
    """Slopes hash like their (p, q) pair, compare only with slopes, stay
    immutable and unordered, carry no instance dict, and copy and pickle
    to equal slopes."""

    @given(BIG)
    def test_hash_is_the_pair_hash(self, s):
        assert hash(s) == hash((s.p, s.q))
        assert hash(Slope(s.p, s.q)) == hash(s)

    def test_equality_only_with_slopes(self):
        assert Slope(1, 2) != (1, 2)
        assert Slope(1, 2).__eq__((1, 2)) is NotImplemented
        with pytest.raises(TypeError):
            Slope(1, 3) < Slope(1, 2)

    @given(BIG)
    def test_frozen_and_slotted(self, s):
        with pytest.raises(FrozenInstanceError):
            s.p = 0
        with pytest.raises(FrozenInstanceError):
            del s.q
        with pytest.raises(FrozenInstanceError):
            s.other = 1
        assert not hasattr(s, "__dict__")

    @given(BIG)
    def test_copy_and_pickle_round_trips(self, s):
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(twin) is Slope and twin == s
            assert (twin.p, twin.q) == (s.p, s.q)


class TestExtendedGcd:
    def test_negative_gcd_is_made_positive(self):
        # Euclid's last nonzero remainder is negative here, -4 and -3.
        assert slopes._extgcd(-4, 0) == (4, -1, 0)
        g, x, y = slopes._extgcd(-6, -9)
        assert g == 3 and -6 * x - 9 * y == 3

    @given(INTS, INTS)
    def test_bezout(self, a, b):
        g, x, y = slopes._extgcd(a, b)
        assert g == gcd(a, b) and a * x + b * y == g
