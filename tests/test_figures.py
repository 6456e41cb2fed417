import random
import re
from fractions import Fraction

import pytest

from exactplane import Line, Point, intersect, is_parallel, line_from_points
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

    def test_right_edge_clips_to_the_whole_edge(self):
        seg = clip_to_viewport(Line(1, 0, 6), self.VP)  # x = xmax
        assert seg == (Point(6, -6), Point(6, 6))


def four_border_clip(l: Line, vp: Viewport):
    """The reference clip: ``l`` against four border lines by general
    intersection, keeping distinct crossings inside the box."""
    borders = (
        Line(1, 0, vp.xmin),
        Line(1, 0, vp.xmax),
        Line(0, 1, vp.ymin),
        Line(0, 1, vp.ymax),
    )
    hits = []
    for border in borders:
        if is_parallel(l, border):
            continue
        q = intersect(l, border)
        if vp.covers(q) and q not in hits:
            hits.append(q)
    if len(hits) < 2:
        return None
    hits.sort(key=lambda p: (p.x, p.y))
    return hits[0], hits[-1]


CLIP_VIEWPORTS = (
    Viewport(),
    Viewport(xmin=Fraction(-8), xmax=Fraction(8), ymin=Fraction(-8), ymax=Fraction(8)),
    Viewport(xmin=Fraction(-1, 3), xmax=Fraction(7, 2), ymin=Fraction(2), ymax=Fraction(5)),
)


def clip_lines(seed: int, count: int):
    """``count`` seeded lines: horizontal, vertical, sloped, through a corner
    of a ``CLIP_VIEWPORTS`` box, and on a box edge, with coordinates that
    often hit the boxes' own bounds."""
    rnd = random.Random(seed)
    bounds = sorted({b for vp in CLIP_VIEWPORTS for b in (vp.xmin, vp.xmax, vp.ymin, vp.ymax)})
    corners = [Point(x, y) for vp in CLIP_VIEWPORTS
               for x in (vp.xmin, vp.xmax) for y in (vp.ymin, vp.ymax)]

    def value():
        if rnd.random() < 0.3:
            return rnd.choice(bounds)
        return Fraction(rnd.randint(-60, 60), rnd.randint(1, 6))

    def coeff():
        return Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 12), rnd.randint(1, 4))

    lines = [Line(1, 0, b) for b in bounds] + [Line(0, 1, b) for b in bounds]
    while len(lines) < count:
        kind = rnd.randrange(5)
        if kind == 0:
            lines.append(Line(0, 1, value()))
        elif kind == 1:
            lines.append(Line(1, 0, value()))
        elif kind == 2:
            lines.append(Line(coeff(), coeff(), value()))
        elif kind == 3:
            q = rnd.choice(corners)
            a, b = coeff(), coeff()
            lines.append(Line(a, b, a * q.x + b * q.y))
        else:
            lines.append(line_from_points(*rnd.sample(corners, 2)))
    return lines


def test_clip_matches_the_four_border_reference():
    lines = clip_lines(seed=19, count=5000)
    kinds = {(l.a == 0, l.b == 0) for l in lines}
    assert kinds == {(True, False), (False, True), (False, False)}
    for vp in CLIP_VIEWPORTS:
        corners = [Point(x, y) for x in (vp.xmin, vp.xmax) for y in (vp.ymin, vp.ymax)]
        edges = {Line(1, 0, vp.xmin), Line(1, 0, vp.xmax), Line(0, 1, vp.ymin), Line(0, 1, vp.ymax)}
        assert edges <= set(lines)
        through_corner = 0
        for l in lines:
            assert clip_to_viewport(l, vp) == four_border_clip(l, vp), (l, vp)
            through_corner += any(l.evaluate(q) == 0 for q in corners)
        assert through_corner >= 500


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
