from fractions import Fraction

import pytest

from exactplane import (
    ORIGIN,
    X_AXIS,
    AxisParallelogram,
    AxisStripScene,
    Frame,
    GeomError,
    Line,
    OriginOffAxisError,
    ParallelProjectionError,
    Point,
    PreconditionError,
    StripScene,
    contains,
    nu,
    nu_general,
    nu_general_invariance,
    reflect_through,
    transform_scene,
    translate,
    transported_offset,
)

# slope-2 pair with a slanted axis through (4, 0)
SCENE = AxisStripScene(
    g=Line(-2, 1, 4),
    p=Line(-2, 1, 2),
    axis=Line(1, -4, 4),
    origin=Point(4, 0),
    offset=3,
    sample=Point(0, 4),
)


class TestWorkedScene:
    def test_shifted_sources_follow_the_axis_direction(self):
        r = nu_general(SCENE)
        assert r.s == Point(-3, Fraction(13, 4))
        assert r.t == Point(3, Fraction(19, 4))

    def test_corners(self):
        r = nu_general(SCENE)
        assert r.s_bar == Point(Fraction(-4, 69), Fraction(130, 69))
        assert r.t_bar == Point(Fraction(68, 27), Fraction(190, 27))
        assert r.neg_s_bar == reflect_through(r.s_bar, SCENE.origin)
        assert r.neg_t_bar == reflect_through(r.t_bar, SCENE.origin)

    def test_axis_point(self):
        r = nu_general(SCENE)
        assert r.nu_point == Point(Fraction(13, 2), Fraction(5, 8))
        assert contains(SCENE.axis, r.nu_point)
        assert contains(r.connecting_line, r.t_bar)
        assert contains(r.connecting_line, r.neg_s_bar)

    def test_sample_invariance(self):
        for sample in (Point(-1, 2), Point(2, 8), Point(Fraction(1, 2), 5)):
            scene = AxisStripScene(
                g=SCENE.g, p=SCENE.p, axis=SCENE.axis, origin=SCENE.origin,
                offset=SCENE.offset, sample=sample,
            )
            assert nu_general(scene).nu_point == Point(Fraction(13, 2), Fraction(5, 8))

    def test_invariance_helper(self):
        samples = [Point(0, 4), Point(-1, 2), Point(2, 8)]
        assert nu_general_invariance(
            SCENE.g, SCENE.p, SCENE.axis, SCENE.origin, SCENE.offset, samples
        )

    def test_offset_sign_reflects_through_center(self):
        flipped = AxisStripScene(
            g=SCENE.g, p=SCENE.p, axis=SCENE.axis, origin=SCENE.origin,
            offset=-SCENE.offset, sample=SCENE.sample,
        )
        assert flipped.offset == -3  # the sign survives, unlike the plain spread
        got = nu_general(flipped).nu_point
        assert got == reflect_through(Point(Fraction(13, 2), Fraction(5, 8)), SCENE.origin)
        assert got == Point(Fraction(3, 2), Fraction(-5, 8))

    def test_zero_offset_lands_on_center(self):
        scene = AxisStripScene(
            g=SCENE.g, p=SCENE.p, axis=SCENE.axis, origin=SCENE.origin,
            offset=0, sample=SCENE.sample,
        )
        assert nu_general(scene).nu_point == SCENE.origin


class TestReductionToStandardFrame:
    def test_matches_the_direct_intercept(self):
        strip = StripScene(g=Line(-2, 1, 4), p=Line(-2, 1, 2), epsilon=4, sample=Point(0, 4))
        general = AxisStripScene(
            g=strip.g, p=strip.p, axis=X_AXIS, origin=ORIGIN, offset=4, sample=strip.sample
        )
        assert nu_general(general).nu_point == Point(nu(strip), 0) == Point(2, 0)


class TestCollapse:
    def test_target_through_center(self):
        scene = AxisStripScene(
            g=Line(-2, 1, 4), p=Line(-2, 1, -8), axis=Line(1, -4, 4),
            origin=Point(4, 0), offset=3, sample=Point(0, 4),
        )
        r = nu_general(scene)
        assert r.s_bar == r.t_bar == r.neg_s_bar == r.neg_t_bar == scene.origin
        assert r.nu_point == scene.origin
        assert r.connecting_line is None


class TestEquivariance:
    FRAME = Frame(((1, 1), (0, 1)), Point(1, -2))

    def test_scene_transport(self):
        moved = transform_scene(SCENE, self.FRAME)
        r, mr = nu_general(SCENE), nu_general(moved)
        assert mr.s == self.FRAME.apply(r.s)
        assert mr.t == self.FRAME.apply(r.t)

    def test_axis_point_transport(self):
        moved = transform_scene(SCENE, self.FRAME)
        assert nu_general(moved).nu_point == self.FRAME.apply(
            nu_general(SCENE).nu_point
        )

    def test_transported_offset_scales_with_direction(self):
        lam = transported_offset(self.FRAME, SCENE.axis, SCENE.offset)
        d = SCENE.axis.direction()
        image = self.FRAME.apply_direction(d)
        moved_axis = self.FRAME.apply_line(SCENE.axis)
        d2 = moved_axis.direction()
        # image direction must be the canonical one scaled by lam / offset
        factor = lam / SCENE.offset
        assert (image.dx, image.dy) == (factor * d2.dx, factor * d2.dy)


class TestAxisParallelToPair:
    """An axis parallel to the pair is admitted: the point is O + lam*offset*d
    with lam = p(O) / g(O), whatever the sample."""

    def test_worked_scene(self):
        # lam = (1 + 2) / (1 - 4) = -1, so the point is (3, 1) - 3 * (1, 0)
        for sample in (Point(7, 4), Point(-2, 4), Point(Fraction(1, 3), 4)):
            scene = AxisStripScene(
                g=Line(0, 1, 4), p=Line(0, 1, -2), axis=Line(0, 1, 1),
                origin=Point(3, 1), offset=3, sample=sample,
            )
            r = nu_general(scene)
            assert r.nu_point == Point(0, 1)
            assert contains(r.connecting_line, r.t_bar)
            assert contains(r.connecting_line, r.neg_s_bar)

    def test_slanted_pair(self):
        g, p, axis, origin = Line(-2, 1, 4), Line(-2, 1, 2), Line(-2, 1, 9), Point(0, 9)
        lam = p.evaluate(origin) / g.evaluate(origin)
        assert lam == Fraction(7, 5)
        for sample in (Point(0, 4), Point(1, 6), Point(-3, -2)):
            scene = AxisStripScene(g=g, p=p, axis=axis, origin=origin, offset=3, sample=sample)
            assert nu_general(scene).nu_point == translate(origin, axis.direction(), lam * 3)


class TestValidation:
    def test_center_must_sit_on_axis(self):
        with pytest.raises(OriginOffAxisError):
            AxisStripScene(
                g=Line(-2, 1, 4), p=Line(-2, 1, 2), axis=Line(1, -4, 4),
                origin=Point(0, 0), offset=3, sample=Point(0, 4),
            )

    def test_center_off_the_source_line(self):
        axis = Line(1, 1, 2)
        assert contains(axis, Point(0, 2))  # and (0, 2) is also on g below
        with pytest.raises(PreconditionError):
            AxisStripScene(
                g=Line(-2, 1, 2), p=Line(-2, 1, 4), axis=axis,
                origin=Point(0, 2), offset=3, sample=Point(1, 4),
            )

    def test_sample_must_lie_on_source(self):
        with pytest.raises(PreconditionError):
            AxisStripScene(
                g=Line(-2, 1, 4), p=Line(-2, 1, 2), axis=Line(1, -4, 4),
                origin=Point(4, 0), offset=3, sample=Point(0, 5),
            )

    def test_sample_off_the_axis(self):
        # the axis meets g where x - 4(2x + 4) = 4, i.e. x = -20/7
        crossing = Point(Fraction(-20, 7), Fraction(-12, 7))
        assert contains(Line(1, -4, 4), crossing)
        with pytest.raises(PreconditionError):
            AxisStripScene(
                g=Line(-2, 1, 4), p=Line(-2, 1, 2), axis=Line(1, -4, 4),
                origin=Point(4, 0), offset=3, sample=crossing,
            )

    def test_parallel_ray_raises_at_construction_time_of_the_result(self):
        # center (0, 1) on the vertical axis x = 0; the down-shift of the
        # sample lands at (2, 5), whose ray from the center has slope 2
        scene = AxisStripScene(
            g=Line(-2, 1, 4), p=Line(-2, 1, 2), axis=Line(1, 0, 0),
            origin=Point(0, 1), offset=3, sample=Point(2, 8),
        )
        with pytest.raises(ParallelProjectionError):
            nu_general(scene)

    def test_invariance_helper_names_the_failing_sample(self):
        samples = [Point(2, 8), Point(0, 4)]
        with pytest.raises(GeomError) as info:
            nu_general_invariance(
                Line(-2, 1, 4), Line(-2, 1, 2), Line(1, 0, 0), Point(0, 1), 3, samples
            )
        assert "(2, 8)" in info.value.message

    def test_invariance_helper_names_a_huge_sample(self):
        # past the int-string limit the sample still prints exactly
        huge = Point(0, 10**5000)
        with pytest.raises(PreconditionError) as info:
            nu_general_invariance(
                Line(-2, 1, 4), Line(-2, 1, 2), Line(1, 0, 0), Point(0, 1), 3, [huge]
            )
        assert info.value.message.startswith("sample (0, 1" + "0" * 5000 + ")")
