"""Deterministic SVG rendering of scenes and construction results.

Geometry stays rational right up to the final coordinate print, where values
become decimals with 12 significant digits ('%.12g').  Given the same scene
and viewport the output is byte-identical: elements are emitted in list
order, styles are a fixed stylesheet, and nothing timestamps or randomizes.

Every marked point is wrapped as

    <g class="mark" data-x="<p/q>" data-y="<p/q>">...

with the exact rational coordinates in the data attributes, so consumers and
tests can locate constructed points without parsing pixel numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .axis_projection import AxisProjectionResult, AxisScene, construct_p
from .double_projection import (
    ProjectionWitness,
    TransversalScene,
    p_hor,
    p_ver,
)
from .kernel import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Line,
    Point,
    line_from_points,
    midpoint,
    parallel_through,
    scalar,
)
from .parallelogram import StripScene, build_witness
from .parallelogram_axis import AxisParallelogram, AxisStripScene, nu_general
from .textio import format_scalar


@dataclass(frozen=True)
class Viewport:
    xmin: Fraction = Fraction(-6)
    xmax: Fraction = Fraction(6)
    ymin: Fraction = Fraction(-6)
    ymax: Fraction = Fraction(6)
    width: int = 600
    height: int = 600

    def __post_init__(self):
        object.__setattr__(self, "xmin", scalar(self.xmin))
        object.__setattr__(self, "xmax", scalar(self.xmax))
        object.__setattr__(self, "ymin", scalar(self.ymin))
        object.__setattr__(self, "ymax", scalar(self.ymax))
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("viewport must have positive extent")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport must have positive pixel size")

    def to_px(self, p: Point) -> Tuple[Fraction, Fraction]:
        sx = (p.x - self.xmin) * self.width / (self.xmax - self.xmin)
        sy = self.height - (p.y - self.ymin) * self.height / (self.ymax - self.ymin)
        return sx, sy

    def covers(self, p: Point) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax


def _fmt(value: Fraction) -> str:
    """Pixel-coordinate formatting: decimal, 12 significant digits."""
    try:
        return "%.12g" % float(value)
    except OverflowError:
        # past the float range (~1.8e308)
        return format(Decimal(value.numerator) / Decimal(value.denominator), ".12g")


@dataclass(frozen=True)
class LineElement:
    line: Line
    label: str
    css: str


@dataclass(frozen=True)
class PolygonElement:
    points: Tuple[Point, ...]
    css: str


@dataclass(frozen=True)
class MarkElement:
    point: Point
    label: str


Element = Union[LineElement, PolygonElement, MarkElement]

_STYLE = """
    line, polygon { stroke-width: 1.5; }
    .frame-axis { stroke: #999999; stroke-width: 1; }
    .base { stroke: #1f6fb4; }
    .transversal { stroke: #d62728; }
    .axis-line { stroke: #2ca02c; }
    .axis-line-dashed { stroke: #2ca02c; stroke-dasharray: 7 4; }
    .ray { stroke: #9467bd; stroke-dasharray: 4 3; }
    .link { stroke: #ff7f0e; }
    .link-dashed { stroke: #ff7f0e; stroke-dasharray: 7 4; }
    .para { stroke: #8c564b; fill: none; stroke-dasharray: 2 3; }
    .mark circle { fill: #111111; }
    text { font-family: sans-serif; font-size: 13px; fill: #111111; }
""".strip("\n")


def clip_to_viewport(l: Line, vp: Viewport) -> Optional[Tuple[Point, Point]]:
    """The exact segment of ``a*x + b*y = c`` in the viewport box: the first and
    last, in ``(x, y)`` order, of the distinct crossings the box covers, at
    ``y = (c - a*x)/b`` on ``x = xmin, xmax`` if ``b != 0`` and at
    ``x = (c - b*y)/a`` on ``y = ymin, ymax`` if ``a != 0``; None for fewer than two."""
    hits: List[Point] = []
    if l.b:
        hits += [Point(x, (l.c - l.a * x) / l.b) for x in (vp.xmin, vp.xmax)]
    if l.a:
        hits += [Point((l.c - l.b * y) / l.a, y) for y in (vp.ymin, vp.ymax)]
    hits = sorted({q for q in hits if vp.covers(q)}, key=lambda p: (p.x, p.y))
    return (hits[0], hits[-1]) if len(hits) > 1 else None


def _emit_segment(out: List[str], vp: Viewport, a: Point, b: Point, css: str) -> None:
    ax, ay = vp.to_px(a)
    bx, by = vp.to_px(b)
    out.append(
        f'  <line class="{css}" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
        f'x2="{_fmt(bx)}" y2="{_fmt(by)}"/>'
    )


def render_svg(title: str, elements: Sequence[Element], vp: Viewport) -> str:
    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width}" height="{vp.height}" '
        f'viewBox="0 0 {vp.width} {vp.height}">'
    )
    out.append(f"  <title>{title}</title>")
    out.append("  <style>")
    out.append(_STYLE)
    out.append("  </style>")
    out.append(
        f'  <rect x="0" y="0" width="{vp.width}" height="{vp.height}" fill="#ffffff"/>'
    )
    for axis in (X_AXIS, Y_AXIS):
        seg = clip_to_viewport(axis, vp)
        if seg is not None:
            _emit_segment(out, vp, seg[0], seg[1], "frame-axis")
    for el in elements:
        if isinstance(el, LineElement):
            seg = clip_to_viewport(el.line, vp)
            if seg is None:
                continue
            _emit_segment(out, vp, seg[0], seg[1], el.css)
            if el.label:
                mx, my = vp.to_px(midpoint(seg[0], seg[1]))
                out.append(
                    f'  <text x="{_fmt(mx + 5)}" y="{_fmt(my - 5)}">{el.label}</text>'
                )
        elif isinstance(el, PolygonElement):
            coords = " ".join(
                "%s,%s" % tuple(_fmt(v) for v in vp.to_px(p)) for p in el.points
            )
            out.append(f'  <polygon class="{el.css}" points="{coords}"/>')
        else:
            px, py = vp.to_px(el.point)
            out.append(
                f'  <g class="mark" data-x="{format_scalar(el.point.x)}" '
                f'data-y="{format_scalar(el.point.y)}">'
            )
            out.append(f'    <circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5"/>')
            if el.label:
                out.append(
                    f'    <text x="{_fmt(px + 6)}" y="{_fmt(py - 6)}">{el.label}</text>'
                )
            out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def transversal_elements(
    scene: TransversalScene, witnesses: Sequence[ProjectionWitness], mark_intercepts: bool = False
) -> List[Element]:
    """Scene plus any computed distinguished points."""
    s, t = scene.crossings()
    elements: List[Element] = [
        LineElement(scene.g_s, "G_S", "base"),
        LineElement(scene.g_t, "G_T", "base"),
        LineElement(scene.l, "L", "transversal"),
        LineElement(line_from_points(ORIGIN, s), "Z_S", "ray"),
        LineElement(line_from_points(ORIGIN, t), "Z_T", "ray"),
        MarkElement(ORIGIN, "0"),
        MarkElement(s, "S"),
        MarkElement(t, "T"),
    ]
    if mark_intercepts:
        if not scene.g_s.is_horizontal:
            elements.append(MarkElement(Point(scene.g_s.x_intercept(), 0), "a_S"))
            elements.append(MarkElement(Point(scene.g_t.x_intercept(), 0), "a_T"))
        if not scene.g_s.is_vertical:
            elements.append(MarkElement(Point(0, scene.g_s.y_intercept()), "b_S"))
            elements.append(MarkElement(Point(0, scene.g_t.y_intercept()), "b_T"))
    for w in witnesses:
        label = "P_hor" if w.case_tag.name.startswith("HORIZONTAL") else "P_ver"
        elements.append(MarkElement(w.point, label))
    return elements


def axis_projection_elements(result: AxisProjectionResult) -> List[Element]:
    scene = result.scene
    elements: List[Element] = [
        LineElement(scene.g_s, "G_S", "base"),
        LineElement(scene.g_t, "G_T", "base"),
        LineElement(scene.l, "L", "transversal"),
        LineElement(scene.axis, "Axis", "axis-line"),
        LineElement(result.axis_p, "Axis_P", "axis-line-dashed"),
        LineElement(result.z_s, "Z_S", "ray"),
        LineElement(result.z_t, "Z_T", "ray"),
        MarkElement(scene.origin, "Origin"),
        MarkElement(result.s, "S"),
        MarkElement(result.t, "T"),
        MarkElement(result.s_axis, "S_Axis"),
        MarkElement(result.t_axis, "T_Axis"),
        MarkElement(result.p, "P"),
    ]
    if result.s_p is not None:
        elements.append(MarkElement(result.s_p, "S_P"))
    if result.t_p is not None:
        elements.append(MarkElement(result.t_p, "T_P"))
    return elements


def _rays_and_link(record: AxisParallelogram, center: Point) -> List[Element]:
    """The rays from the center through S and T, and the connecting line."""
    elements: List[Element] = [
        LineElement(line_from_points(center, record.s), "", "ray"),
        LineElement(line_from_points(center, record.t), "", "ray"),
    ]
    if record.connecting_line is not None:
        elements.append(LineElement(record.connecting_line, "", "link"))
    return elements


def _corners_and_marks(
    record: AxisParallelogram, center: Point,
    center_label: str, s_label: str, t_label: str, value_label: str,
) -> List[Element]:
    """The parallelogram, unless corners coincide, and its nine marks."""
    corners = (record.s_bar, record.t_bar, record.neg_s_bar, record.neg_t_bar)
    elements: List[Element] = []
    if len(set(corners)) == 4:
        elements.append(PolygonElement(corners, "para"))
    bar = "̄"
    elements.extend(
        [
            MarkElement(center, center_label),
            MarkElement(record.scene.sample, "(x̂|ŷ)"),
            MarkElement(record.s, s_label),
            MarkElement(record.t, t_label),
            MarkElement(record.s_bar, "S" + bar),
            MarkElement(record.t_bar, "T" + bar),
            MarkElement(record.neg_s_bar, "-S" + bar),
            MarkElement(record.neg_t_bar, "-T" + bar),
            MarkElement(record.nu_point, value_label),
        ]
    )
    return elements


def strip_elements(
    scene: StripScene, witness: AxisParallelogram, value_label: str = "ν"
) -> List[Element]:
    """The ``nu`` or ``mu`` parallelogram; value_label names the intercept
    mark, and ``μ`` marks the sources S_v and T_v."""
    suffix = "_v" if value_label == "μ" else ""
    elements: List[Element] = [
        LineElement(scene.g, "G", "base"),
        LineElement(scene.p, "P", "base"),
        *_rays_and_link(witness, ORIGIN),
    ]
    if witness.s_bar != witness.neg_t_bar:
        elements.append(
            LineElement(
                line_from_points(witness.s_bar, witness.neg_t_bar), "", "link-dashed"
            )
        )
    return elements + _corners_and_marks(
        witness, ORIGIN, "0", "S" + suffix, "T" + suffix, value_label
    )


def axis_strip_elements(result: AxisParallelogram) -> List[Element]:
    scene = result.scene
    return [
        LineElement(scene.g, "G", "base"),
        LineElement(scene.p, "P", "base"),
        LineElement(scene.axis, "Axis", "axis-line"),
        LineElement(parallel_through(scene.axis, scene.sample), "Âxis", "axis-line-dashed"),
        *_rays_and_link(result, scene.origin),
        *_corners_and_marks(result, scene.origin, "Origin", "S", "T", "ν"),
    ]


def _figure_one() -> List[Element]:
    scene = TransversalScene(
        g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2), l=Line(0, 1, 1)
    )
    return transversal_elements(
        scene, [p_hor(scene), p_ver(scene)], mark_intercepts=True
    )


def _figure_two() -> List[Element]:
    scene = AxisScene(
        g_s=Line(-1, 1, 2),
        g_t=Line(-1, 1, -1),
        l=Line(1, 1, 4),
        axis=Line(1, -3, 3),
        origin=Point(3, 0),
    )
    return axis_projection_elements(construct_p(scene))


def _figure_three() -> List[Element]:
    scene = StripScene(
        g=Line(-2, 1, 4), p=Line(-2, 1, 2), epsilon=Fraction(4), sample=Point(0, 4)
    )
    return strip_elements(scene, build_witness(scene))


def _figure_four() -> List[Element]:
    scene = AxisStripScene(
        g=Line(-2, 1, 4),
        p=Line(-2, 1, 2),
        axis=Line(1, -4, 4),
        origin=Point(4, 0),
        offset=Fraction(3),
        sample=Point(0, 4),
    )
    return axis_strip_elements(nu_general(scene))


# name -> (title, build, default viewport); build() returns the elements
FIGURES: Dict[str, Tuple[str, Callable[[], List[Element]], Viewport]] = {
    "pic1": ("Two distinguished points on a transversal", _figure_one, Viewport()),
    "pic2": ("The construction relative to a slanted axis", _figure_two, Viewport()),
    "pic3": ("The parallelogram and its invariant intercept", _figure_three, Viewport()),
    "pic4": (
        "The parallelogram intercept relative to a slanted axis",
        _figure_four,
        Viewport(-8, 8, -8, 8),
    ),
}


def render_figure(name: str, vp: Optional[Viewport] = None) -> str:
    """Render a built-in figure; ``vp`` overrides its default viewport."""
    try:
        title, build, default_vp = FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
    return render_svg(title, build(), vp if vp is not None else default_vp)
