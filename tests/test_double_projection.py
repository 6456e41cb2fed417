from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactplane import (
    CaseUnavailableError,
    Line,
    OriginOnLineError,
    ParallelLinesError,
    Point,
    PreconditionError,
    ProjectionCase,
    TransversalScene,
    contains,
    line_from_points,
    ORIGIN,
    oracle_point,
    p_hor,
    p_hor_closed_form,
    p_ver,
    p_ver_closed_form,
    rho_pair,
    rho_tilde_pair,
)

from conftest import nonzero_rationals, rationals

# the worked scene used throughout: two parallel lines of slope 2 crossed
# by the horizontal line y = 1
SCENE = TransversalScene(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(0, 1, 1))


class TestWorkedScene:
    def test_crossings(self):
        s, t = SCENE.crossings()
        assert s == Point(Fraction(-3, 2), 1)
        assert t == Point(Fraction(-1, 2), 1)

    def test_intercepts(self):
        assert SCENE.g_s.x_intercept() == -2
        assert SCENE.g_t.x_intercept() == -1
        assert SCENE.g_s.y_intercept() == 4
        assert SCENE.g_t.y_intercept() == 2

    def test_ray_parameters_agree(self):
        assert rho_pair(SCENE) == (-1, -1)
        assert rho_tilde_pair(SCENE) == (3, 3)

    def test_distinguished_points(self):
        assert p_hor(SCENE).point == Point(Fraction(-5, 2), 1)
        assert p_ver(SCENE).point == Point(Fraction(3, 2), 1)

    def test_closed_forms_and_oracle_match(self):
        assert p_hor_closed_form(SCENE) == Point(Fraction(-5, 2), 1)
        assert p_ver_closed_form(SCENE) == Point(Fraction(3, 2), 1)
        assert oracle_point(SCENE, ProjectionCase.HORIZONTAL_A) == Point(Fraction(-5, 2), 1)
        assert oracle_point(SCENE, ProjectionCase.VERTICAL_B) == Point(Fraction(3, 2), 1)

    def test_witness_records_the_defining_equations(self):
        w = p_hor(SCENE)
        assert w.case_tag is ProjectionCase.HORIZONTAL_A
        assert (w.a_or_b_s, w.a_or_b_t) == (-2, -1)
        # shifting by each x-intercept lands on the other crossing's ray
        assert Point(w.point.x - w.a_or_b_s, w.point.y) == Point(
            w.alpha * w.t.x, w.alpha * w.t.y
        )
        assert Point(w.point.x - w.a_or_b_t, w.point.y) == Point(
            w.beta * w.s.x, w.beta * w.s.y
        )
        assert contains(SCENE.l, w.point)

    def test_vertical_witness(self):
        w = p_ver(SCENE)
        assert w.case_tag is ProjectionCase.VERTICAL_B
        assert (w.a_or_b_s, w.a_or_b_t) == (4, 2)
        assert Point(w.point.x, w.point.y - w.a_or_b_s) == Point(
            w.alpha * w.t.x, w.alpha * w.t.y
        )
        assert Point(w.point.x, w.point.y - w.a_or_b_t) == Point(
            w.beta * w.s.x, w.beta * w.s.y
        )


class TestClosedFormBranches:
    """One hand-checked scene per formula branch."""

    def test_general_slopes(self):
        scene = TransversalScene(
            g_s=Line(-1, 1, 1), g_t=Line(-1, 1, 3), l=Line(1, 1, 2)
        )
        expected_hor = Point(Fraction(-7, 4), Fraction(15, 4))
        expected_ver = Point(Fraction(-1, 4), Fraction(9, 4))
        assert p_hor(scene).point == expected_hor == p_hor_closed_form(scene)
        assert p_ver(scene).point == expected_ver == p_ver_closed_form(scene)

    def test_vertical_transversal(self):
        scene = TransversalScene(
            g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(1, 0, 3)
        )
        assert p_hor(scene).point == Point(3, Fraction(40, 3)) == p_hor_closed_form(scene)
        assert p_ver(scene).point == Point(3, 12) == p_ver_closed_form(scene)

    def test_horizontal_pair_general_transversal(self):
        scene = TransversalScene(
            g_s=Line(0, 1, 4), g_t=Line(0, 1, 2), l=Line(-1, 1, 1)
        )
        assert p_ver(scene).point == Point(-3, -2) == p_ver_closed_form(scene)
        with pytest.raises(CaseUnavailableError):
            p_hor(scene)
        with pytest.raises(CaseUnavailableError):
            rho_pair(scene)
        with pytest.raises(CaseUnavailableError):
            p_hor_closed_form(scene)

    def test_horizontal_pair_vertical_transversal(self):
        scene = TransversalScene(
            g_s=Line(0, 1, 4), g_t=Line(0, 1, 2), l=Line(1, 0, 3)
        )
        assert p_ver(scene).point == Point(3, 6) == p_ver_closed_form(scene)

    def test_vertical_pair_general_transversal(self):
        scene = TransversalScene(
            g_s=Line(1, 0, -2), g_t=Line(1, 0, -1), l=Line(-1, 1, 1)
        )
        assert p_hor(scene).point == Point(-1, 0) == p_hor_closed_form(scene)
        with pytest.raises(CaseUnavailableError):
            p_ver(scene)
        with pytest.raises(CaseUnavailableError):
            rho_tilde_pair(scene)
        with pytest.raises(CaseUnavailableError):
            p_ver_closed_form(scene)

    def test_vertical_pair_horizontal_transversal(self):
        scene = TransversalScene(
            g_s=Line(1, 0, -2), g_t=Line(1, 0, -1), l=Line(0, 1, 1)
        )
        assert p_hor(scene).point == Point(-3, 1) == p_hor_closed_form(scene)

    def test_coincident_pair(self):
        scene = TransversalScene(
            g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 4), l=Line(0, 1, 1)
        )
        s, t = scene.crossings()
        assert s == t
        assert p_hor(scene).point == Point(Fraction(-7, 2), 1) == p_hor_closed_form(scene)
        assert p_ver(scene).point == p_ver_closed_form(scene)


class TestTrivialPlacements:
    """When a crossing already sits on the relevant coordinate axis the
    construction returns that crossing unchanged."""

    def test_s_on_x_axis(self):
        g_s = Line(-1, 1, 2)  # crosses the x-axis at (-2, 0)
        scene = TransversalScene(
            g_s=g_s, g_t=Line(-1, 1, 5), l=line_from_points(Point(-2, 0), Point(0, 4))
        )
        s, _ = scene.crossings()
        assert s == Point(-2, 0)
        assert p_hor(scene).point == s

    def test_t_on_y_axis(self):
        g_t = Line(-1, 1, 3)  # crosses the y-axis at (0, 3)
        scene = TransversalScene(
            g_s=Line(-1, 1, 1), g_t=g_t, l=line_from_points(Point(0, 3), Point(3, 0))
        )
        _, t = scene.crossings()
        assert t == Point(0, 3)
        assert p_ver(scene).point == t


class TestSceneValidation:
    def test_base_lines_must_be_parallel(self):
        with pytest.raises(PreconditionError):
            TransversalScene(g_s=Line(-1, 1, 0), g_t=Line(-2, 1, 0), l=Line(0, 1, 1))

    def test_transversal_must_cross(self):
        with pytest.raises(ParallelLinesError):
            TransversalScene(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(-2, 1, 7))

    def test_transversal_must_miss_origin(self):
        with pytest.raises(OriginOnLineError):
            TransversalScene(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(-1, 1, 0))


@st.composite
def scenes(draw):
    m = draw(nonzero_rationals)
    b_s = draw(rationals)
    b_t = draw(rationals)
    m_l = draw(rationals)
    b_l = draw(nonzero_rationals)
    if m_l == m:
        m_l = m + 1
    return TransversalScene(
        g_s=Line(-m, 1, b_s), g_t=Line(-m, 1, b_t), l=Line(-m_l, 1, b_l)
    )


class TestGeneratedScenes:
    @given(scenes())
    def test_both_formulas_agree_with_oracle(self, scene):
        assert (
            p_hor(scene).point
            == p_hor_closed_form(scene)
            == oracle_point(scene, ProjectionCase.HORIZONTAL_A)
        )
        assert (
            p_ver(scene).point
            == p_ver_closed_form(scene)
            == oracle_point(scene, ProjectionCase.VERTICAL_B)
        )

    @given(scenes())
    def test_ray_parameter_reaches_the_point(self, scene):
        s, _ = scene.crossings()
        w = scene.l.direction()
        for rho, witness in ((rho_pair(scene)[0], p_hor(scene)), (rho_tilde_pair(scene)[0], p_ver(scene))):
            assert rho == witness.rho
            assert Point(s.x + rho * w.dx, s.y + rho * w.dy) == witness.point
