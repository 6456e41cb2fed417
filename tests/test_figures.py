import re
from fractions import Fraction

import pytest

from exactplane import Line, Point
from exactplane.figures import Viewport, render_figure, render_svg
from exactplane.figures import (
    LineElement,
    MarkElement,
    _fmt,
    clip_to_viewport,
    transversal_elements,
)
from exactplane import TransversalScene, p_hor


def marks_of(svg: str):
    return set(re.findall(r'data-x="([^"]+)" data-y="([^"]+)"', svg))


class TestBuiltInFigures:
    def test_every_figure_renders(self):
        for name in ("pic1", "pic2", "pic3", "pic4"):
            svg = render_figure(name)
            assert svg.startswith('<?xml version="1.0"')
            assert svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        for name in ("pic1", "pic3"):
            assert render_figure(name) == render_figure(name)

    def test_first_scene_marks_the_stated_points(self):
        marks = marks_of(render_figure("pic1"))
        assert ("-5/2", "1") in marks  # horizontal-shift point
        assert ("3/2", "1") in marks  # vertical-shift point
        assert ("-3/2", "1") in marks and ("-1/2", "1") in marks  # crossings
        assert ("-2", "0") in marks and ("-1", "0") in marks  # x-intercepts
        assert ("0", "4") in marks and ("0", "2") in marks  # y-intercepts

    def test_parallelogram_scene_marks_corners_and_intercept(self):
        marks = marks_of(render_figure("pic3"))
        assert ("-2/3", "2/3") in marks
        assert ("-2", "-2") in marks
        assert ("2/3", "-2/3") in marks
        assert ("2", "2") in marks
        assert ("2", "0") in marks  # the invariant intercept

    def test_unknown_name(self):
        with pytest.raises(ValueError) as info:
            render_figure("pic9")
        assert "pic1" in str(info.value)

    def test_viewport_override_changes_geometry(self):
        near = render_figure("pic1")
        far = render_figure(
            "pic1",
            Viewport(xmin=Fraction(-60), xmax=Fraction(60), ymin=Fraction(-60), ymax=Fraction(60)),
        )
        assert near != far
        assert marks_of(near) == marks_of(far)  # exact coordinates are viewport-free


class TestClipping:
    VP = Viewport()

    def test_line_outside_returns_none(self):
        assert clip_to_viewport(Line(1, 0, 100), self.VP) is None

    def test_diagonal_hits_corners(self):
        seg = clip_to_viewport(Line(-1, 1, 0), self.VP)  # y = x
        assert seg is not None
        assert set(seg) == {Point(-6, -6), Point(6, 6)}

    def test_horizontal_line_spans_the_box(self):
        seg = clip_to_viewport(Line(0, 1, 2), self.VP)
        assert set(seg) == {Point(-6, 2), Point(6, 2)}

    def test_tangent_corner_counts_as_degenerate(self):
        # touches the viewport only at one corner
        corner_line = Line(1, 1, 12)  # x + y = 12 meets the box at (6, 6) alone
        assert clip_to_viewport(corner_line, self.VP) is None


class TestRenderSvg:
    def test_marks_carry_exact_coordinates(self):
        svg = render_svg("t", [MarkElement(Point(Fraction(1, 3), -2), "Q")], Viewport())
        assert 'data-x="1/3" data-y="-2"' in svg
        assert ">Q</text>" in svg

    def test_labels_skipped_when_empty(self):
        svg = render_svg("t", [MarkElement(Point(0, 0), "")], Viewport())
        assert "<circle" in svg
        assert "<text" not in svg

    def test_offscreen_line_is_dropped(self):
        svg = render_svg(
            "t", [LineElement(Line(0, 1, 50), "far", "base")], Viewport()
        )
        assert "far" not in svg

    def test_title_is_present(self):
        svg = render_svg("named", [], Viewport())
        assert "<title>named</title>" in svg

    def test_witness_elements_include_rays(self):
        scene = TransversalScene(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(0, 1, 1))
        elements = transversal_elements(scene, [p_hor(scene)])
        labels = [el.label for el in elements if isinstance(el, (LineElement, MarkElement))]
        assert "Z_S" in labels and "Z_T" in labels
        assert "P_hor" in labels


class TestPixelFormatting:
    def test_in_float_range(self):
        assert _fmt(Fraction(1, 3)) == "0.333333333333"
        assert _fmt(Fraction(600)) == "600"

    def test_past_float_range(self):
        # float() overflows past ~1.8e308
        assert _fmt(Fraction(10**400 + 7, 3)) == "3.33333333333e+399"
        assert _fmt(Fraction(-(10**400))) == "-1.00000000000e+400"


class TestViewport:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            Viewport(xmin=Fraction(3), xmax=Fraction(3))
        with pytest.raises(ValueError):
            Viewport(width=0)

    def test_px_mapping_flips_y(self):
        vp = Viewport()
        assert vp.to_px(Point(-6, -6)) == (0, 600)
        assert vp.to_px(Point(6, 6)) == (600, 0)
        assert vp.to_px(Point(0, 0)) == (300, 300)

    def test_covers(self):
        vp = Viewport()
        assert vp.covers(Point(0, 0))
        assert not vp.covers(Point(7, 0))
