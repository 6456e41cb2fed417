"""The transversal-point construction relative to an arbitrary axis and center.

Any line ``axis`` and any point ``origin`` on it, the center, act as the
reference pair; :mod:`.double_projection` is this construction on the x- and
y-axis centered at the coordinate origin.  Writing S, T for the crossings of
the transversal with the parallel pair, s_axis/t_axis for the crossings of
the pair with the axis, and z_s/z_t for the rays joining the center to S and
T, there is a unique point P on the transversal such that, on the parallel
to the axis through P, the crossing with z_t sits at the same (squared)
distance from P as s_axis does from the center, and likewise with z_s and
t_axis swapped in.

One elimination, :func:`_eliminate`, computes P = S + rho*w along the
transversal direction w: P - s_axis is parallel to T - O and P - t_axis to
S - O for the center O, and each condition alone fixes rho.  Two degenerate
dispatches exist: when S itself lies on the axis the point is S (``t_p``
collapses onto the center), and symmetrically for T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import (
    InconsistentError,
    OriginOffAxisError,
    OriginOnLineError,
    ParallelLinesError,
    PreconditionError,
)
from .kernel import (
    Direction,
    Line,
    Point,
    contains,
    dist_sq,
    intersect,
    is_parallel,
    line_from_points,
    parallel_through,
    side_of,
    translate,
)


class AxisCase(Enum):
    MAIN = "MAIN"
    S_COINCIDES = "S_COINCIDES"
    T_COINCIDES = "T_COINCIDES"


@dataclass(frozen=True)
class AxisScene:
    """Parallel pair, transversal, axis, and center; validated on construction."""

    g_s: Line
    g_t: Line
    l: Line
    axis: Line
    origin: Point

    def __post_init__(self):
        if not is_parallel(self.g_s, self.g_t):
            raise PreconditionError("the two base lines must be parallel")
        if is_parallel(self.l, self.g_s):
            raise ParallelLinesError("transversal is parallel to the base lines")
        if is_parallel(self.axis, self.g_s):
            raise PreconditionError("axis is parallel to the base lines")
        if self.axis == self.l:
            raise PreconditionError("axis coincides with the transversal")
        if not contains(self.axis, self.origin):
            raise OriginOffAxisError("center does not lie on the axis")
        if contains(self.l, self.origin):
            raise OriginOnLineError("center lies on the transversal")
        # Without this the main case degenerates: the center would sit on one
        # of the two rays, collapsing the same-side claims to sign zero.
        if contains(self.g_s, self.origin) or contains(self.g_t, self.origin):
            raise PreconditionError("center lies on one of the base lines")


@dataclass(frozen=True)
class AxisProjectionResult:
    p: Point
    axis_p: Line
    s_p: Optional[Point]
    t_p: Optional[Point]
    case_tag: AxisCase
    s_axis: Point
    t_axis: Point
    # context carried along for verification and rendering
    scene: AxisScene
    s: Point
    t: Point
    z_s: Line
    z_t: Line


def _ray_denominator(w: Direction, px: Fraction, py: Fraction) -> Fraction:
    # w x (p - O) = 0 iff p sits on the line through the center with
    # direction w, i.e. iff the transversal passes through the center
    value = w.dx * py - w.dy * px
    if value == 0:
        raise OriginOnLineError("transversal passes through the origin")
    return value


def _eliminate(
    g_s: Line, g_t: Line, l: Line, axis: Line, center: Point
) -> Tuple[Point, Point, Direction, Direction, Fraction, Fraction, Fraction, Fraction]:
    """S, T, the directions w of ``l`` and d of ``axis``, the axis
    coordinates sigma_s, sigma_t of the pair's crossings with the axis
    (s_axis = O + sigma_s*d), and the two eliminations rho_1, rho_2 of the
    ray parameter of P = S + rho*w, for a pair that is not parallel to
    ``axis`` and a transversal that misses the center O.

    With u x v = u.x*v.y - u.y*v.x, P - s_axis parallel to T - O gives
    rho_1 = -((S - s_axis) x (T - O)) / (w x (T - O)), and P - t_axis
    parallel to S - O gives rho_2 = -((S - t_axis) x (S - O)) / (w x (S - O)).
    Both are returned unchecked, so callers can assert they agree.
    """
    s, t = intersect(l, g_s), intersect(l, g_t)
    w, d = l.direction(), axis.direction()
    # sigma = -g(O) / (a*d.dx + b*d.dy) puts O + sigma*d on g; canonical
    # parallel lines share (a, b)
    a, b = g_s.a, g_s.b
    along, at_center = a * d.dx + b * d.dy, a * center.x + b * center.y
    sigma_s, sigma_t = (g_s.c - at_center) / along, (g_t.c - at_center) / along
    sx, sy = s.x - center.x, s.y - center.y
    tx, ty = t.x - center.x, t.y - center.y
    rho_1 = (sigma_s * (d.dx * ty - d.dy * tx) - (sx * ty - sy * tx)) / _ray_denominator(w, tx, ty)
    rho_2 = sigma_t * (d.dx * sy - d.dy * sx) / _ray_denominator(w, sx, sy)
    return s, t, w, d, sigma_s, sigma_t, rho_1, rho_2


def construct_p(scene: AxisScene) -> AxisProjectionResult:
    """Build the distinguished point and all witness geometry.

    Raises InconsistentError if any contract check fails after construction;
    that signals a bug, not bad input.
    """
    origin = scene.origin
    s, t, w, d, sigma_s, sigma_t, rho_1, _ = _eliminate(
        scene.g_s, scene.g_t, scene.l, scene.axis, origin
    )
    s_axis, t_axis = translate(origin, d, sigma_s), translate(origin, d, sigma_t)
    z_s = line_from_points(origin, s)
    z_t = line_from_points(origin, t)
    if s_axis == s:
        p, axis_p, s_p, t_p, case = s, scene.axis, None, origin, AxisCase.S_COINCIDES
    elif t_axis == t:
        p, axis_p, s_p, t_p, case = t, scene.axis, origin, None, AxisCase.T_COINCIDES
    else:
        p = translate(s, w, rho_1)
        axis_p = parallel_through(scene.axis, p)
        s_p, t_p, case = intersect(z_s, axis_p), intersect(z_t, axis_p), AxisCase.MAIN
    result = AxisProjectionResult(
        p=p, axis_p=axis_p, s_p=s_p, t_p=t_p, case_tag=case, s_axis=s_axis, t_axis=t_axis,
        scene=scene, s=s, t=t, z_s=z_s, z_t=z_t,
    )

    checks = verify_p2(result)
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise InconsistentError(f"construction violated its own contract: {', '.join(bad)}")
    return result


def verify_p2(result: AxisProjectionResult) -> Dict[str, bool]:
    """Evaluate every contract condition of a result as named booleans.

    Pure re-checking: nothing here feeds back into the construction, so an
    all-true report genuinely certifies the geometry.  Both coincidence
    cases run one certificate, over the crossing on the axis (S or T).
    """
    scene = result.scene
    checks = {
        "point_on_transversal": contains(scene.l, result.p),
        "own_axis_parallel": is_parallel(result.axis_p, scene.axis),
        "point_on_own_axis": contains(result.axis_p, result.p),
    }
    if result.case_tag is AxisCase.MAIN:
        side_s_axis = side_of(result.z_t, result.s_axis)
        side_t_axis = side_of(result.z_s, result.t_axis)
        checks.update(
            {
                "distance_s": dist_sq(result.s_axis, scene.origin)
                == dist_sq(result.p, result.t_p),
                "distance_t": dist_sq(result.t_axis, scene.origin)
                == dist_sq(result.p, result.s_p),
                "same_side_s": side_s_axis == side_of(result.z_t, result.p)
                and side_s_axis != 0,
                "same_side_t": side_t_axis == side_of(result.z_s, result.p)
                and side_t_axis != 0,
            }
        )
    else:
        name, crossing, on_axis, ray, companion = (
            ("s", result.s, result.s_axis, result.z_s, result.t_p)
            if result.case_tag is AxisCase.S_COINCIDES
            else ("t", result.t, result.t_axis, result.z_t, result.s_p)
        )
        checks.update(
            {
                f"point_is_{name}": result.p == crossing and result.p == on_axis,
                "own_axis_is_axis": result.axis_p == scene.axis,
                f"{name}_ray_is_axis": ray == scene.axis,
                "companion_is_center": companion == scene.origin,
                f"distance_{name}": dist_sq(on_axis, scene.origin)
                == dist_sq(result.p, companion),
            }
        )
    return checks
