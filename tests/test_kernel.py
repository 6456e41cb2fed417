from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactplane import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    CaseUnavailableError,
    CoincidentPointsError,
    DegenerateTransversalError,
    Direction,
    Frame,
    Line,
    OriginOffAxisError,
    ParallelLinesError,
    Point,
    contains,
    dist_sq,
    frame_to_standard,
    intersect,
    is_parallel,
    line_from_points,
    line_through,
    midpoint,
    parallel_through,
    reflect_through,
    side_of,
    translate,
)

from conftest import directions, lines, nonzero_rationals, points, rationals


class TestLineCanonicalization:
    def test_scaling_collapses(self):
        assert Line(2, 4, 6) == Line(1, 2, 3)
        assert Line(-1, -2, -3) == Line(1, 2, 3)

    def test_leading_coefficient_is_one(self):
        l = Line(0, -3, 6)
        assert (l.a, l.b, l.c) == (0, 1, -2)
        l = Line(Fraction(1, 2), 0, 5)
        assert (l.a, l.b, l.c) == (1, 0, 10)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Line(0, 0, 5)

    @given(lines, nonzero_rationals)
    def test_idempotent_under_scaling(self, l, k):
        assert Line(k * l.a, k * l.b, k * l.c) == l

    def test_orientation_queries(self):
        assert Line(0, 1, 3).is_horizontal
        assert Line(1, 0, 3).is_vertical
        assert not Line(1, 1, 0).is_horizontal

    def test_slope_and_intercepts(self):
        l = Line(-2, 1, 4)  # y = 2x + 4
        assert l.slope() == 2
        assert l.x_intercept() == -2
        assert l.y_intercept() == 4
        with pytest.raises(CaseUnavailableError):
            Line(1, 0, 3).slope()
        with pytest.raises(CaseUnavailableError):
            Line(0, 1, 3).x_intercept()
        with pytest.raises(CaseUnavailableError):
            Line(1, 0, 3).y_intercept()

    def test_direction_is_canonical(self):
        d = Line(-2, 1, 4).direction()
        assert (d.dx, d.dy) == (1, 2)
        d = Line(1, 0, 3).direction()  # vertical
        assert (d.dx, d.dy) == (0, 1)
        d = Line(0, 2, 3).direction()  # horizontal
        assert (d.dx, d.dy) == (1, 0)

    @given(lines)
    def test_direction_is_canonical_and_along_the_line(self, l):
        d = l.direction()
        assert (d.dx if d.dx != 0 else d.dy) == 1
        assert l.a * d.dx + l.b * d.dy == 0


class TestIncidence:
    @given(points, points)
    def test_line_from_points_contains_both(self, p, q):
        if p == q:
            with pytest.raises(CoincidentPointsError):
                line_from_points(p, q)
        else:
            l = line_from_points(p, q)
            assert contains(l, p) and contains(l, q)

    @given(lines, lines)
    def test_intersection_lies_on_both(self, l1, l2):
        if is_parallel(l1, l2):
            with pytest.raises(ParallelLinesError):
                intersect(l1, l2)
        else:
            q = intersect(l1, l2)
            assert contains(l1, q) and contains(l2, q)

    @given(lines, points)
    def test_parallel_through_passes_and_parallels(self, l, p):
        m = parallel_through(l, p)
        assert contains(m, p)
        assert is_parallel(l, m)

    @given(lines, points)
    def test_side_of_sign(self, l, p):
        s = side_of(l, p)
        assert s in (-1, 0, 1)
        assert (s == 0) == contains(l, p)

    @given(points, directions)
    def test_line_through_follows_direction(self, p, d):
        l = line_through(p, d)
        assert contains(l, p)
        assert contains(l, translate(p, d, Fraction(3, 2)))


class TestPointOps:
    @given(points, points)
    def test_reflection_involution(self, p, center):
        assert reflect_through(reflect_through(p, center), center) == p

    @given(points, points)
    def test_midpoint_of_reflection_is_center(self, p, center):
        assert midpoint(p, reflect_through(p, center)) == center

    @given(points, points)
    def test_dist_sq_symmetric_nonnegative(self, p, q):
        assert dist_sq(p, q) == dist_sq(q, p) >= 0
        assert (dist_sq(p, q) == 0) == (p == q)


frames = st.tuples(
    rationals, rationals, rationals, rationals, rationals, rationals
).filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0).map(
    lambda t: Frame(((t[0], t[1]), (t[2], t[3])), Point(t[4], t[5]))
)


class TestFrame:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Frame(((1, 2), (2, 4)), ORIGIN)

    @given(frames, points)
    def test_inverse_round_trip(self, f, p):
        assert f.inverse().apply(f.apply(p)) == p

    @given(frames, lines)
    def test_image_line_contains_image_points(self, f, l):
        d = l.direction()
        base = (
            Point(l.c / l.a, 0) if l.b == 0 else Point(0, l.c / l.b)
        )
        q1, q2 = base, translate(base, d, 2)
        image = f.apply_line(l)
        assert contains(image, f.apply(q1))
        assert contains(image, f.apply(q2))

    @given(frames, lines, points)
    def test_parallelism_preserved(self, f, l, p):
        m = parallel_through(l, p)
        assert is_parallel(f.apply_line(l), f.apply_line(m))


class TestFrameToStandard:
    def test_normalizes_named_scene(self):
        axis = Line(1, -3, 3)
        origin = Point(3, 0)
        f = frame_to_standard(origin, axis, Direction(1, 1))
        assert f.apply(origin) == ORIGIN
        assert f.apply_line(axis) == X_AXIS
        d = f.apply_direction(Direction(1, 1))
        assert (d.dx, d.dy) == (0, 1)

    def test_origin_must_sit_on_axis(self):
        with pytest.raises(OriginOffAxisError):
            frame_to_standard(Point(0, 1), X_AXIS, Direction(0, 1))

    def test_transversal_must_cross_axis(self):
        with pytest.raises(DegenerateTransversalError):
            frame_to_standard(ORIGIN, X_AXIS, Direction(5, 0))

    @given(st.data())
    def test_random_scenes_normalize(self, data):
        l = data.draw(lines)
        d = data.draw(directions.filter(lambda d: d.dy * l.b + d.dx * l.a != 0))
        base = Point(l.c / l.a, 0) if l.b == 0 else Point(0, l.c / l.b)
        f = frame_to_standard(base, l, d)
        assert f.apply(base) == ORIGIN
        assert f.apply_line(l) == X_AXIS
        img = f.apply_direction(d)
        assert (img.dx, img.dy) == (0, 1)

    def test_axes_are_canonical_constants(self):
        assert X_AXIS == Line(0, 1, 0)
        assert Y_AXIS == Line(1, 0, 0)
        assert contains(X_AXIS, Point(7, 0))
        assert contains(Y_AXIS, Point(0, -3))


class TestHugeValuesInErrors:
    """Error messages print values past the 4300-digit int-string limit
    exactly, so the typed error is raised instead of a ValueError."""

    HUGE = 10**5000

    def test_parallel_intersection(self):
        with pytest.raises(ParallelLinesError, match="^Line\\(1, 0, 10{5000}\\) and"):
            intersect(Line(1, 0, self.HUGE), Line(1, 0, 0))

    def test_line_from_equal_points(self):
        p = Point(self.HUGE, Fraction(1, self.HUGE + 1))
        with pytest.raises(CoincidentPointsError):
            line_from_points(p, Point(p.x, p.y))

    def test_origin_off_axis(self):
        with pytest.raises(OriginOffAxisError):
            frame_to_standard(Point(0, self.HUGE), X_AXIS, Direction(0, 1))

    def test_in_range_reprs_are_unchanged(self):
        assert repr(Point(Fraction(-5, 2), 1)) == "Point(-5/2, 1)"
        assert repr(Line(2, 4, 1)) == "Line(1, 2, 1/2)"
        assert repr(Direction(3, Fraction(1, 3))) == "Direction(3, 1/3)"
