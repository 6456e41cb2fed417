from dataclasses import replace
from fractions import Fraction

import pytest

from exactplane import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    AxisCase,
    AxisScene,
    Direction,
    Line,
    OriginOffAxisError,
    OriginOnLineError,
    ParallelLinesError,
    Point,
    PreconditionError,
    construct_p,
    contains,
    dist_sq,
    frame_to_standard,
    p_hor,
    p_ver,
    side_of,
    verify_p2,
    TransversalScene,
)

BASE = dict(g_s=Line(-1, 1, 2), g_t=Line(-1, 1, -1), l=Line(1, 1, 4))
SLANTED = AxisScene(axis=Line(1, -3, 3), origin=Point(3, 0), **BASE)


class TestSlantedScene:
    def test_main_case_point(self):
        result = construct_p(SLANTED)
        assert result.case_tag is AxisCase.MAIN
        assert result.p == Point(-10, 14)

    def test_axis_crossings(self):
        result = construct_p(SLANTED)
        assert result.s == Point(1, 3)
        assert result.t == Point(Fraction(5, 2), Fraction(3, 2))
        assert result.s_axis == Point(Fraction(-9, 2), Fraction(-5, 2))
        assert result.t_axis == Point(0, -1)

    def test_full_contract(self):
        result = construct_p(SLANTED)
        checks = verify_p2(result)
        assert checks and all(checks.values())

    def test_distance_claims_explicitly(self):
        r = construct_p(SLANTED)
        assert dist_sq(r.s_axis, SLANTED.origin) == dist_sq(r.p, r.t_p)
        assert dist_sq(r.t_axis, SLANTED.origin) == dist_sq(r.p, r.s_p)

    def test_side_claims_explicitly(self):
        r = construct_p(SLANTED)
        assert side_of(r.z_t, r.s_axis) == side_of(r.z_t, r.p) != 0
        assert side_of(r.z_s, r.t_axis) == side_of(r.z_s, r.p) != 0

    def test_companion_points_sit_on_own_axis(self):
        r = construct_p(SLANTED)
        assert contains(r.axis_p, r.p)
        assert contains(r.axis_p, r.s_p)
        assert contains(r.axis_p, r.t_p)
        assert r.z_s != r.z_t

    def test_frame_choice_does_not_matter(self):
        # every frame to standard position carries the point along
        reference = construct_p(SLANTED).p
        for d in (Direction(0, 1), Direction(1, 2), Direction(-3, 1)):
            frame = frame_to_standard(SLANTED.origin, SLANTED.axis, d)
            image = AxisScene(
                g_s=frame.apply_line(SLANTED.g_s), g_t=frame.apply_line(SLANTED.g_t),
                l=frame.apply_line(SLANTED.l), axis=X_AXIS, origin=ORIGIN,
            )
            assert frame.apply_line(SLANTED.axis) == X_AXIS
            assert frame.apply(SLANTED.origin) == ORIGIN
            assert construct_p(image).p == frame.apply(reference)


class TestReductionToCoordinateAxes:
    SCENE = TransversalScene(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(0, 1, 1))

    def test_x_axis_reduces_to_horizontal_case(self):
        full = AxisScene(
            g_s=self.SCENE.g_s, g_t=self.SCENE.g_t, l=self.SCENE.l,
            axis=X_AXIS, origin=ORIGIN,
        )
        assert construct_p(full).p == p_hor(self.SCENE).point == Point(Fraction(-5, 2), 1)

    def test_y_axis_reduces_to_vertical_case(self):
        full = AxisScene(
            g_s=self.SCENE.g_s, g_t=self.SCENE.g_t, l=self.SCENE.l,
            axis=Y_AXIS, origin=ORIGIN,
        )
        assert construct_p(full).p == p_ver(self.SCENE).point == Point(Fraction(3, 2), 1)

    def test_axis_crossings_are_the_intercepts(self):
        full = AxisScene(
            g_s=self.SCENE.g_s, g_t=self.SCENE.g_t, l=self.SCENE.l,
            axis=X_AXIS, origin=ORIGIN,
        )
        r = construct_p(full)
        assert r.s_axis == Point(-2, 0)
        assert r.t_axis == Point(-1, 0)


# an axis through S = (1, 3), and one through T = (5/2, 3/2)
COINCIDING = {
    "s": AxisScene(axis=Line(3, 4, 15), origin=Point(5, 0), **BASE),
    "t": AxisScene(axis=Line(3, -5, 0), origin=ORIGIN, **BASE),
}


class TestDegenerateCases:
    def test_s_coincides(self):
        scene = COINCIDING["s"]
        r = construct_p(scene)
        assert r.case_tag is AxisCase.S_COINCIDES
        assert r.p == Point(1, 3) == r.s == r.s_axis
        assert r.t_p == scene.origin
        assert r.s_p is None
        assert r.axis_p == scene.axis
        assert all(verify_p2(r).values())

    def test_t_coincides(self):
        scene = COINCIDING["t"]
        r = construct_p(scene)
        assert r.case_tag is AxisCase.T_COINCIDES
        assert r.p == Point(Fraction(5, 2), Fraction(3, 2)) == r.t == r.t_axis
        assert r.s_p == scene.origin
        assert r.t_p is None
        assert all(verify_p2(r).values())


def _moved(q):
    return Point(q.x + 1, q.y)


# a fault planted in a coincidence record, and the key that must report it
FAULTS = {
    "point-off-crossing": (lambda r, c: {"p": _moved(r.p)}, "point_is_{}"),
    "parallel-own-axis": (
        lambda r, c: {"axis_p": Line(r.axis_p.a, r.axis_p.b, r.axis_p.c + 1)},
        "own_axis_is_axis",
    ),
    "other-ray": (lambda r, c: {"z_s": r.z_t} if c == "s" else {"z_t": r.z_s}, "{}_ray_is_axis"),
    "companion-off-center": (
        lambda r, c: {"t_p": _moved(r.t_p)} if c == "s" else {"s_p": _moved(r.s_p)},
        "companion_is_center",
    ),
}


class TestCoincidenceCertificate:
    """S_COINCIDES and T_COINCIDES share one certificate; it must still name
    the crossing in its keys and tell each fault apart, in both roles."""

    @pytest.mark.parametrize("crossing", list(COINCIDING))
    def test_keys_name_the_crossing(self, crossing):
        assert set(verify_p2(construct_p(COINCIDING[crossing]))) == {
            "point_on_transversal", "own_axis_parallel", "point_on_own_axis",
            f"point_is_{crossing}", "own_axis_is_axis", f"{crossing}_ray_is_axis",
            "companion_is_center", f"distance_{crossing}",
        }

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("crossing", list(COINCIDING))
    def test_each_fault_turns_its_key_false(self, crossing, fault):
        record = construct_p(COINCIDING[crossing])
        changes, key = FAULTS[fault]
        checks = verify_p2(replace(record, **changes(record, crossing)))
        assert checks[key.format(crossing)] is False


class TestValidation:
    def test_axis_parallel_to_pair_rejected(self):
        with pytest.raises(PreconditionError) as info:
            AxisScene(axis=Line(-1, 1, 7), origin=Point(0, 7), **BASE)
        assert info.value.code == "E_PRECONDITION"

    def test_axis_equal_to_transversal_rejected(self):
        with pytest.raises(PreconditionError):
            AxisScene(axis=Line(1, 1, 4), origin=Point(0, 4), **BASE)

    def test_origin_off_axis_rejected(self):
        with pytest.raises(OriginOffAxisError) as info:
            AxisScene(axis=Line(1, -3, 3), origin=Point(0, 0), **BASE)
        assert info.value.code == "E_ORIGIN_OFF_AXIS"

    def test_origin_on_transversal_rejected(self):
        axis = Line(-2, 1, 4)  # passes through (0, 4), which also sits on l
        with pytest.raises(OriginOnLineError):
            AxisScene(axis=axis, origin=Point(0, 4), **BASE)

    def test_origin_on_base_line_rejected(self):
        # (-9/2, -5/2) is where the axis meets g_s
        with pytest.raises(PreconditionError):
            AxisScene(
                axis=Line(1, -3, 3),
                origin=Point(Fraction(-9, 2), Fraction(-5, 2)),
                **BASE,
            )

    def test_nonparallel_pair_rejected(self):
        with pytest.raises(PreconditionError):
            AxisScene(
                g_s=Line(-1, 1, 2), g_t=Line(-2, 1, -1), l=Line(1, 1, 4),
                axis=Line(1, -3, 3), origin=Point(3, 0),
            )

    def test_parallel_transversal_rejected(self):
        with pytest.raises(ParallelLinesError):
            AxisScene(
                g_s=Line(-1, 1, 2), g_t=Line(-1, 1, -1), l=Line(-1, 1, 9),
                axis=Line(1, -3, 3), origin=Point(3, 0),
            )
