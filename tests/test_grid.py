from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigentrack.grid import (
    ParamPoint,
    dyadic,
    forward_points,
    gamma_set,
    midpoint,
    neighbours,
    point_of_phys,
    ref_of_phys,
    tensor_grid,
)

BOX1 = ((-1.0, 1.0),)
BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


def pt(box, *coords):
    return ParamPoint.from_ref(tuple(dyadic(n, d) for n, d in coords), box)


def refs(points):
    return {tuple(c.fraction for c in p.ref) for p in points}


class TestDyadicCoord:
    def test_canonicalization(self):
        assert dyadic(4, 3) == dyadic(1, 1)
        assert dyadic(0, 5) == dyadic(0, 0)
        assert dyadic(-2, 1) == dyadic(-1, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dyadic(3, 1)

    def test_levels(self):
        assert dyadic(0).level == 0
        assert dyadic(1).level == 1
        assert dyadic(-1).level == 1
        assert dyadic(1, 1).level == 2
        assert dyadic(3, 3).level == 4

    @given(st.integers(-64, 64), st.integers(0, 6))
    def test_fraction_round_trip(self, num, log2_den):
        if abs(num) > (1 << log2_den):
            return
        c = dyadic(num, log2_den)
        assert c.fraction == Fraction(num, 1 << log2_den)


class TestGammaSet:
    def test_base_cases(self):
        assert [c.fraction for c in gamma_set(0)] == [0]
        assert [c.fraction for c in gamma_set(1)] == [-1, 0, 1]
        assert [c.fraction for c in gamma_set(2)] == [
            Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
        ]

    def test_cardinality(self):
        for m in range(1, 9):
            assert len(gamma_set(m)) == 2**m + 1

    def test_nested(self):
        for m in range(8):
            assert set(gamma_set(m)) <= set(gamma_set(m + 1))

    def test_minimal_level_membership(self):
        for m in range(7):
            for c in gamma_set(m):
                assert c.level <= m
                assert c in gamma_set(c.level)
                if c.level > 0:
                    assert c not in gamma_set(c.level - 1)


class TestForwardAndNeighbours:
    def test_corner(self):
        p = pt(BOX2, (-1, 0), (-1, 0))
        assert refs(forward_points(p, BOX2)) == {
            (Fraction(-1, 2), Fraction(-1)), (Fraction(-1), Fraction(-1, 2)),
        }
        assert refs(neighbours(p, BOX2)) == {
            (Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0)),
        }

    def test_edge_midpoint(self):
        p = pt(BOX2, (-1, 1), (1, 0))
        assert refs(forward_points(p, BOX2)) == {
            (Fraction(-3, 4), Fraction(1)),
            (Fraction(-1, 4), Fraction(1)),
            (Fraction(-1, 2), Fraction(1, 2)),
        }

    def test_interior_point(self):
        p = pt(BOX2, (-1, 1), (1, 1))
        assert refs(neighbours(p, BOX2)) == {
            (Fraction(-1), Fraction(1, 2)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(-1, 2), Fraction(0)),
            (Fraction(-1, 2), Fraction(1)),
        }

    def test_level_zero_centre(self):
        p = pt(BOX2, (0, 0), (0, 0))
        assert refs(forward_points(p, BOX2)) == {
            (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
        }
        assert neighbours(p, BOX2) == set()

    def test_level_zero_1d(self):
        p = pt(BOX1, (0, 0))
        assert neighbours(p, BOX1) == set()

    def test_cardinality_bound(self):
        import random

        rng = random.Random(3)
        for d in (1, 2, 3):
            box = tuple((-1.0, 1.0) for _ in range(d))
            for _ in range(334):
                ref = []
                for _ in range(d):
                    k = rng.randint(0, 5)
                    n = rng.randint(-(1 << k), 1 << k)
                    ref.append(dyadic(n, k))
                p = ParamPoint.from_ref(tuple(ref), box)
                assert len(forward_points(p, box)) <= 2 * d
                assert len(neighbours(p, box)) <= 2 * d


class TestMidpoint:
    def test_1d_corner(self):
        p, q = pt(BOX1, (-1, 0)), pt(BOX1, (0, 0))
        assert midpoint(p, q, BOX1) == midpoint(q, p, BOX1)
        assert midpoint(p, q, BOX1).ref[0].fraction == Fraction(-1, 2)
        # any two points on one axis have an exact midpoint, neighbours or not
        assert midpoint(p, pt(BOX1, (1, 0)), BOX1) == q

    def test_paper_trace_point(self):
        box = ((0.4, 1.0),)
        p, q = pt(box, (1, 2)), pt(box, (1, 1))
        for mid in (midpoint(p, q, box), midpoint(q, p, box)):
            assert mid.ref[0].fraction == Fraction(3, 8)
            assert mid.phys[0] == pytest.approx(0.8125, abs=1e-15)

    def test_2d_axis(self):
        p, q = pt(BOX2, (-1, 0), (-1, 0)), pt(BOX2, (0, 0), (-1, 0))
        for mid in (midpoint(p, q, BOX2), midpoint(q, p, BOX2)):
            assert [c.fraction for c in mid.ref] == [Fraction(-1, 2), -1]

    def test_rejects_non_neighbour(self):
        # a point is not its own neighbour, nor one that is a diagonal away
        p = pt(BOX2, (1, 1), (0, 0))
        for q in (p, pt(BOX2, (0, 0), (1, 1))):
            for a, b in ((p, q), (q, p)):
                with pytest.raises(ValueError, match="exactly one axis"):
                    midpoint(a, b, BOX2)

    def test_rejects_a_point_two_steps_away(self):
        # one step on each of two axes: the pair spans no subinterval
        p, q = pt(BOX2, (1, 1), (0, 0)), pt(BOX2, (1, 0), (-1, 0))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="exactly one axis"):
                midpoint(a, b, BOX2)

    def test_midpoint_is_forward_point(self):
        # a neighbour q of p is coarser on their axis, so the midpoint from
        # either end is the finer end's forward point
        import random

        rng = random.Random(11)
        count = 0
        for d in (1, 2, 3):
            box = tuple((-1.0, 1.0) for _ in range(d))
            while True:
                ref = []
                for _ in range(d):
                    k = rng.randint(0, 5)
                    n = rng.randint(-(1 << k), 1 << k)
                    ref.append(dyadic(n, k))
                p = ParamPoint.from_ref(tuple(ref), box)
                for q in sorted(neighbours(p, box)):
                    mid = midpoint(p, q, box)
                    assert midpoint(q, p, box) == mid
                    assert mid in forward_points(p, box)
                    count += 1
                    if count >= 1000 and d == 3:
                        break
                if count >= 333 * d:
                    break
        assert count >= 999


class TestPhysicalMap:
    def test_round_trip_exact(self):
        box = ((0.4, 1.0), (0.8, 1.05))
        for coords in (["0.4", "0.8"], ["1", "1.05"], ["0.7", "0.925"], ["0.8125", "0.925"]):
            p = point_of_phys(coords, box)
            for x, want in zip(p.phys, coords):
                assert abs(x - float(want)) < 1e-14

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            ref_of_phys("0.5", (0.4, 1.0))  # (0.5-0.4)/0.6 is not dyadic

    def test_equality_ignores_phys(self):
        box = ((0.4, 1.0),)
        assert pt(box, (1, 1)) == pt(box, (2, 2))

    def test_hash_is_that_of_a_plain_frozen_dataclass(self):
        # the hash is stored at construction, with the value the generated
        # __hash__ gives, so set and dict orders (and every output) are kept
        box = ((0.4, 1.0), (0.8, 1.05))
        routes = [   # reference coordinates (1/2, 0), built five ways
            point_of_phys(["0.85", "0.925"], box),
            ParamPoint.from_ref((dyadic(1, 1), dyadic(0)), box),
            ParamPoint.from_ref((dyadic(4, 3), dyadic(0, 5)), box),   # reduced
            midpoint(pt(box, (1, 0), (0, 0)), pt(box, (0, 0), (0, 0)), box),
            next(p for p in tensor_grid(2, box) if p.ref == (dyadic(1, 1), dyadic(0))),
        ]
        for p in routes:
            assert hash(p) == hash((p.ref,)) == hash(routes[0])
            assert p == routes[0]
        assert len(set(routes)) == 1
        for p in tensor_grid(2, box):
            assert hash(p) == hash((p.ref,))

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers()), min_size=4, max_size=4))
    def test_order_and_hash_agree_with_fractions(self, draws):
        # coordinates past float exactness (log2_den > 53) keep an exact key
        box = ((0.4, 1.0), (0.8, 1.05))
        coords = [dyadic(n % ((2 << d) + 1) - (1 << d), d) for d, n in draws]
        # a neighbour 2**-80 away, which a float cannot tell from coords[0]
        close = coords[0].shifted(1, 80) or coords[0].shifted(-1, 80)
        points = [
            ParamPoint.from_ref((coords[0], coords[1]), box),
            ParamPoint.from_ref((coords[2], coords[3]), box),
            ParamPoint.from_ref((coords[0], coords[3]), box),
            ParamPoint.from_ref((close, coords[1]), box),
        ]
        for p in points:
            for q in points:
                fp, fq = (tuple(c.fraction for c in x.ref) for x in (p, q))
                assert (p == q) == (fp == fq)
                assert (p < q) == (fp < fq)
                assert (hash(p) == hash(q)) or fp != fq
                assert hash(p) == hash((p.ref,))

    def test_exact_key_past_float_precision(self):
        # 1 - 2**-60 and 1 round to the same float; the points stay distinct
        box = ((-1.0, 1.0),)
        near = ParamPoint.from_ref((dyadic((1 << 60) - 1, 60),), box)
        one = ParamPoint.from_ref((dyadic(1),), box)
        assert near.phys == one.phys
        assert near != one and near < one and not one < near
        assert sorted([one, near]) == [near, one]

    def test_tensor_grid(self):
        assert len(tensor_grid(1, BOX2)) == 9
        assert len(tensor_grid(0, BOX2)) == 1
        grid = tensor_grid(1, ((0.4, 1.0),))
        assert [p.phys[0] for p in grid] == [0.4, 0.7, 1.0]

    def test_key_is_unique_and_stable(self):
        grid = tensor_grid(2, BOX2)
        keys = {p.key() for p in grid}
        assert len(keys) == len(grid)
