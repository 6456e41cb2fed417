from dataclasses import fields
from fractions import Fraction

import pytest

from exactplane import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    AxisParallelogram,
    AxisStripScene,
    CoincidentPointsError,
    Line,
    ParallelProjectionError,
    Point,
    PreconditionError,
    StripScene,
    build_witness,
    connecting_line,
    contains,
    minus_nu_check,
    mu,
    mu_closed_form,
    mu_witness,
    nu,
    nu_closed_form,
    nu_general,
    s_bar_t_bar_closed_form,
    swap_line,
    swap_scene,
)
from exactplane.kernel import project_through

# two parallel lines of slope 2, spread 4, sampled at (0, 4)
SCENE = StripScene(g=Line(-2, 1, 4), p=Line(-2, 1, 2), epsilon=4, sample=Point(0, 4))


class TestWorkedScene:
    def test_shifted_sources(self):
        w = build_witness(SCENE)
        assert w.s == Point(-4, 4)
        assert w.t == Point(4, 4)

    def test_projected_corners(self):
        w = build_witness(SCENE)
        assert w.s_bar == Point(Fraction(-2, 3), Fraction(2, 3))
        assert w.t_bar == Point(-2, -2)
        assert w.neg_s_bar == Point(Fraction(2, 3), Fraction(-2, 3))
        assert w.neg_t_bar == Point(2, 2)

    def test_intercept(self):
        assert nu(SCENE) == 2
        assert nu_closed_form(SCENE) == 2

    def test_connecting_line(self):
        w = build_witness(SCENE)
        assert w.connecting_line == Line(1, -2, 2)
        assert connecting_line(SCENE) == Line(1, -2, 2)
        assert contains(w.connecting_line, w.t_bar)
        assert contains(w.connecting_line, w.neg_s_bar)

    def test_mirror_intercept_is_negated(self):
        assert minus_nu_check(SCENE) == -2

    def test_closed_form_corners(self):
        assert s_bar_t_bar_closed_form(SCENE) == (
            Point(Fraction(-2, 3), Fraction(2, 3)),
            Point(-2, -2),
        )

    def test_sample_does_not_matter(self):
        for sample in (Point(-1, 2), Point(Fraction(1, 2), 5), Point(-3, -2)):
            scene = StripScene(g=SCENE.g, p=SCENE.p, epsilon=4, sample=sample)
            assert nu(scene) == 2

    def test_epsilon_sign_is_ignored(self):
        scene = StripScene(g=SCENE.g, p=SCENE.p, epsilon=-4, sample=SCENE.sample)
        assert scene.epsilon == 4
        assert nu(scene) == 2


class TestVerticalPair:
    SCENE = StripScene(g=Line(1, 0, 2), p=Line(1, 0, 1), epsilon=3, sample=Point(2, 5))

    def test_intercept(self):
        assert nu(self.SCENE) == Fraction(3, 2)
        assert nu_closed_form(self.SCENE) == Fraction(3, 2)

    def test_corners(self):
        w = build_witness(self.SCENE)
        assert w.s_bar == Point(1, -5)
        assert w.t_bar == Point(1, 1)
        assert w.neg_t_bar == Point(-1, -1)

    def test_sample_invariance(self):
        other = StripScene(g=Line(1, 0, 2), p=Line(1, 0, 1), epsilon=3, sample=Point(2, -7))
        assert nu(other) == Fraction(3, 2)


class TestCollapse:
    def test_zero_spread(self):
        scene = StripScene(g=SCENE.g, p=SCENE.p, epsilon=0, sample=SCENE.sample)
        w = build_witness(scene)
        assert w.s_bar == w.t_bar
        assert w.nu == 0
        assert contains(w.connecting_line, ORIGIN)

    def test_target_through_origin(self):
        scene = StripScene(g=SCENE.g, p=Line(-2, 1, 0), epsilon=4, sample=SCENE.sample)
        w = build_witness(scene)
        assert w.s_bar == w.t_bar == w.neg_s_bar == w.neg_t_bar == ORIGIN
        assert w.nu == 0
        assert minus_nu_check(scene) == 0


class TestProjection:
    def test_projects_onto_target(self):
        q = project_through(ORIGIN, Point(-4, 4), SCENE.p)
        assert q == Point(Fraction(-2, 3), Fraction(2, 3))

    def test_origin_is_not_a_sample(self):
        with pytest.raises(CoincidentPointsError):
            project_through(ORIGIN, ORIGIN, SCENE.p)

    def test_parallel_ray_rejected(self):
        with pytest.raises(ParallelProjectionError):
            project_through(ORIGIN, Point(1, 2), Line(-2, 1, 4))


class TestValidation:
    def test_sample_must_lie_on_source(self):
        with pytest.raises(PreconditionError):
            StripScene(g=SCENE.g, p=SCENE.p, epsilon=4, sample=Point(0, 5))

    def test_source_must_miss_origin(self):
        with pytest.raises(PreconditionError):
            StripScene(g=Line(-2, 1, 0), p=SCENE.p, epsilon=4, sample=Point(1, 2))

    def test_lines_must_be_parallel(self):
        with pytest.raises(PreconditionError):
            StripScene(g=SCENE.g, p=Line(-3, 1, 2), epsilon=4, sample=SCENE.sample)

    def test_sample_on_x_axis_rejected_by_pipeline(self):
        scene = StripScene(g=SCENE.g, p=SCENE.p, epsilon=4, sample=Point(-2, 0))
        with pytest.raises(PreconditionError):
            build_witness(scene)

    def test_parallel_shift_ray_rejected(self):
        # slope 1, intercept -2, spread 2: the left shift of any sample lands
        # on the ray y = x, which never meets the parallel target
        scene = StripScene(g=Line(-1, 1, -2), p=Line(-1, 1, -5), epsilon=2, sample=Point(3, 1))
        with pytest.raises(ParallelProjectionError):
            build_witness(scene)
        with pytest.raises(ParallelProjectionError):
            nu_closed_form(scene)


class TestSwappedVariant:
    SWAPPED = StripScene(
        g=Line(1, -2, 4), p=Line(1, -2, 2), epsilon=4, sample=Point(4, 0)
    )

    def test_swap_line_exchanges_roles(self):
        assert swap_line(Line(-2, 1, 4)) == Line(1, -2, 4)
        assert swap_line(swap_line(Line(3, 5, 7))) == Line(3, 5, 7)

    def test_swap_scene_round_trip(self):
        assert swap_scene(swap_scene(self.SWAPPED)) == self.SWAPPED

    def test_value_on_swapped_worked_scene(self):
        assert mu(self.SWAPPED) == 2
        assert mu_closed_form(self.SWAPPED) == 2

    def test_value_matches_x_intercept_ratio(self):
        g, p, eps = self.SWAPPED.g, self.SWAPPED.p, self.SWAPPED.epsilon
        assert mu(self.SWAPPED) == p.x_intercept() * eps / g.x_intercept()

    def test_witness_is_expressed_in_original_coordinates(self):
        w = mu_witness(self.SWAPPED)
        assert w.nu == 2
        assert w.s_bar == Point(Fraction(2, 3), Fraction(-2, 3))
        assert w.t_bar == Point(-2, -2)
        assert contains(w.connecting_line, w.t_bar)

    def test_sample_on_y_axis_rejected(self):
        scene = StripScene(g=Line(1, -2, 4), p=Line(1, -2, 2), epsilon=4, sample=Point(0, -2))
        with pytest.raises(PreconditionError):
            mu(scene)

    def test_sample_invariance(self):
        other = StripScene(
            g=Line(1, -2, 4), p=Line(1, -2, 2), epsilon=4, sample=Point(6, 1)
        )
        assert mu(other) == 2


class TestCoordinateAxisCase:
    """nu and mu build the nu_general record on the x- and y-axis."""

    SCENES = {
        # the horizontal pair is parallel to the x-axis, the vertical one to
        # the y-axis; p runs through the origin in the collapsed scene
        "sloped-pair": (Line(-2, 1, 4), Line(-2, 1, 2), Point(1, 6)),
        "vertical-pair": (Line(1, 0, 2), Line(1, 0, 1), Point(2, 5)),
        "horizontal-pair": (Line(0, 1, 4), Line(0, 1, -2), Point(7, 4)),
        "collapsed": (Line(-2, 1, 4), Line(-2, 1, 0), Point(1, 6)),
    }

    @pytest.mark.parametrize("name", list(SCENES))
    @pytest.mark.parametrize(
        "build, axis", [(build_witness, X_AXIS), (mu_witness, Y_AXIS)], ids=["nu", "mu"]
    )
    def test_record_is_nu_general_on_the_axis(self, build, axis, name):
        g, p, sample = self.SCENES[name]
        scene = StripScene(g=g, p=p, epsilon=3, sample=sample)
        record = build(scene)
        general = nu_general(AxisStripScene(g, p, axis, ORIGIN, 3, sample))
        # nu_general has no connecting line when the corners collapse
        excepted = {"scene", "connecting_line"} if name == "collapsed" else {"scene"}
        for f in fields(AxisParallelogram):
            if f.name not in excepted:
                assert getattr(record, f.name) == getattr(general, f.name), f.name
        assert record.scene is scene
        assert record.connecting_line is not None
