"""A sample-independent intercept built from two parallel lines.

Take parallel lines ``g`` and ``p`` with ``g`` missing the origin, a sample
point on ``g`` off the x-axis, and a spread ``epsilon``.  Shift the sample
horizontally by -epsilon and +epsilon to get the source points S and T,
project both through the origin onto ``p`` (giving s_bar and t_bar), and
reflect the projections through the origin.  The four points s_bar, t_bar,
-s_bar, -t_bar form a parallelogram centred at the origin, and the line
through t_bar and -s_bar crosses the x-axis at a value ``nu`` that does not
depend on which sample generated it:

    nu = (y-intercept of p) * epsilon / (y-intercept of g)

for non-vertical lines, and the same with x-intercepts when ``g`` and ``p``
are vertical.  The mirror line through s_bar and -t_bar crosses at ``-nu``,
and swapping the two coordinate axes (vertical spread, y-axis intercept)
produces the analogous invariant ``mu``.

The construction itself is :func:`.parallelogram_axis.nu_general` with the
x-axis (for ``nu``) or the y-axis (for ``mu``) as the axis, the origin as the
center and epsilon as the offset.  ``build_witness`` and ``mu_witness`` add
the coordinate-axis preconditions and return its record,
:class:`.parallelogram_axis.AxisParallelogram`, whose ``nu`` is then the
intercept itself.  Where the corners collapse onto the origin (``p`` runs
through it), ``nu_general`` has no connecting line, and one collapse rule
gives the line through the origin of direction S*g0(T) + T*g0(S), for the
sources S, T and g0(X) = g.a*X.x + g.b*X.y: moving ``p`` off the origin only
scales the corners about it, so every other ``p`` gives that direction.  A
pair perpendicular to the axis takes its own parallel through the origin.
``nu`` and ``mu`` run no closed form; the closed forms are separate oracles.
epsilon is normalized to its absolute value on scene construction: a
negative spread merely swaps S and T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Tuple

from .errors import (
    CaseUnavailableError,
    InconsistentError,
    ParallelProjectionError,
    PreconditionError,
)
from .kernel import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Line,
    Point,
    contains,
    intersect,
    is_parallel,
    line_from_points,
    scalar,
    swap_line,
    swap_point,
)
from .parallelogram_axis import AxisParallelogram, _nu_general_core


@dataclass(frozen=True)
class StripScene:
    g: Line
    p: Line
    epsilon: Fraction
    sample: Point

    def __post_init__(self):
        object.__setattr__(self, "epsilon", abs(scalar(self.epsilon)))
        if not is_parallel(self.g, self.p):
            raise PreconditionError("the two lines must be parallel")
        if contains(self.g, ORIGIN):
            raise PreconditionError("source line passes through the origin")
        if not contains(self.g, self.sample):
            raise PreconditionError("sample point does not lie on the source line")


def _require_off_axis(scene: StripScene, axis: Line) -> None:
    if (scene.sample.y if axis.is_horizontal else scene.sample.x) == 0:
        raise PreconditionError(f"sample point lies on the {'x' if axis.is_horizontal else 'y'}-axis")


def _require_sloped(scene: StripScene) -> Tuple[Fraction, Fraction, Fraction]:
    """(slope, g intercept, p intercept) for the non-vertical closed forms."""
    if scene.g.is_vertical:
        raise CaseUnavailableError("closed form needs non-vertical lines")
    return scene.g.slope(), scene.g.y_intercept(), scene.p.y_intercept()


def _on_axis(scene: StripScene, axis: Line) -> AxisParallelogram:
    """``nu_general`` on a coordinate axis through the origin, with the
    spread as the offset and the collapse rule's line where it has none.
    The scene and the off-axis guard meet every ``AxisStripScene``
    precondition, so the construction runs unvalidated."""
    _require_off_axis(scene, axis)
    r = _nu_general_core(scene, axis, ORIGIN, scene.epsilon)
    if r.connecting_line is not None:
        return r
    g, s, t = scene.g, r.s, r.t
    if g.a * axis.a + g.b * axis.b == 0:
        # a pair perpendicular to the axis keeps its own direction
        return replace(r, connecting_line=Line(g.a, g.b, 0))
    # the line through the origin with direction (dx, dy) is dy*x - dx*y = 0
    g_s, g_t = g.a * s.x + g.b * s.y, g.a * t.x + g.b * t.y
    return replace(r, connecting_line=Line(s.y * g_t + t.y * g_s, -(s.x * g_t + t.x * g_s), 0))


def build_witness(scene: StripScene) -> AxisParallelogram:
    """The nu construction record: horizontal spread, x-axis intercept."""
    return _on_axis(scene, X_AXIS)


def connecting_line(scene: StripScene) -> Line:
    """Closed-form implicit equation of the line through t_bar and -s_bar.

    Only for non-vertical scenes.  The x-coefficient is sample.y times the
    g-intercept, never zero, so the formula stays valid when the connecting
    line happens to be vertical and when the corners collapse.
    """
    m, b_g, b_p = _require_sloped(scene)
    _require_off_axis(scene, X_AXIS)
    _require_transversal_rays(b_g, m, scene.epsilon)
    x, y = scene.sample.x, scene.sample.y
    return Line(
        y * b_g,
        -(x * b_g + m * scene.epsilon ** 2),
        y * b_p * scene.epsilon,
    )


def _require_transversal_rays(b_g: Fraction, m: Fraction, eps: Fraction) -> None:
    # b_g +- m*eps = 0 exactly when the ray through one shifted source is
    # parallel to the line pair, which the construction forbids.
    if b_g + m * eps == 0 or b_g - m * eps == 0:
        raise ParallelProjectionError(
            "ray through a shifted source is parallel to the line pair"
        )


def s_bar_t_bar_closed_form(scene: StripScene) -> Tuple[Point, Point]:
    """Direct coordinates of the two projections, non-vertical scenes only."""
    m, b_g, b_p = _require_sloped(scene)
    _require_off_axis(scene, X_AXIS)
    _require_transversal_rays(b_g, m, scene.epsilon)
    x, y = scene.sample.x, scene.sample.y
    f_s = b_p / (b_g + m * scene.epsilon)
    f_t = b_p / (b_g - m * scene.epsilon)
    return (
        Point(f_s * (x - scene.epsilon), f_s * y),
        Point(f_t * (x + scene.epsilon), f_t * y),
    )


def nu(scene: StripScene) -> Fraction:
    """The invariant x-axis intercept, via the construction."""
    return build_witness(scene).nu


def nu_closed_form(scene: StripScene) -> Fraction:
    """intercept(p) * epsilon / intercept(g); never consults the sample."""
    _require_off_axis(scene, X_AXIS)
    if scene.g.is_vertical:
        r = scene.g.x_intercept()
        if scene.sample.x - scene.epsilon == 0 or scene.sample.x + scene.epsilon == 0:
            raise ParallelProjectionError(
                "ray through a shifted source is parallel to the line pair"
            )
        return scene.p.x_intercept() * scene.epsilon / r
    m, b_g, b_p = _require_sloped(scene)
    _require_transversal_rays(b_g, m, scene.epsilon)
    return b_p * scene.epsilon / b_g


def minus_nu_check(scene: StripScene) -> Fraction:
    """x-axis intercept of the mirror line through s_bar and -t_bar.

    Always equals -nu: the mirror line is the origin-reflection of the
    connecting line.  Computed from points, not from that argument, so the
    equality is worth testing.
    """
    w = build_witness(scene)
    if w.s_bar == w.neg_t_bar:
        return Fraction(0)
    mirror = line_from_points(w.s_bar, w.neg_t_bar)
    if is_parallel(mirror, X_AXIS):
        raise InconsistentError(
            "mirror line is horizontal, which valid input cannot produce"
        )
    return intersect(mirror, X_AXIS).x


def swap_scene(scene: StripScene) -> StripScene:
    return StripScene(
        g=swap_line(scene.g),
        p=swap_line(scene.p),
        epsilon=scene.epsilon,
        sample=swap_point(scene.sample),
    )


def mu(scene: StripScene) -> Fraction:
    """The coordinate-swapped invariant: vertical spread, y-axis intercept."""
    return mu_witness(scene).nu


def mu_closed_form(scene: StripScene) -> Fraction:
    _require_off_axis(scene, Y_AXIS)
    return nu_closed_form(swap_scene(scene))


def mu_witness(scene: StripScene) -> AxisParallelogram:
    """The mu construction record: ``nu_general`` on the y-axis.

    ``nu`` holds the mu value; corners are the projections of the vertically
    shifted sources; the connecting line crosses the y-axis at mu.
    """
    return _on_axis(scene, Y_AXIS)
