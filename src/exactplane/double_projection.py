"""The two distinguished points on a transversal of a parallel line pair.

Setup: two parallel lines ``g_s`` and ``g_t``, crossed by a transversal ``l``
that misses the origin.  Write S and T for the crossings of ``l`` with the
pair, and Z_S, Z_T for the rays joining the origin to S and T.  There is then
exactly one point on ``l`` whose copy shifted left by the x-intercept of
``g_s`` lands on Z_T while the copy shifted by the x-intercept of ``g_t``
lands on Z_S (the horizontal case), and one point with the analogous property
for downward shifts by the y-intercepts (the vertical case).

Each point is computed three independent ways:

* ``p_hor`` / ``p_ver``: the quotient formulas for the ray parameter ``rho``,
  obtained by eliminating the collinearity factors from the defining
  equations.  They are the one elimination of :mod:`.axis_projection` on the
  x-axis and on the y-axis, each centered at the origin; a base line's
  shift is its coordinate along that axis.  Both eliminations must give the
  same value; the pairs are exposed through ``rho_pair`` / ``rho_tilde_pair``
  so that identity can be tested.
* ``p_hor_closed_form`` / ``p_ver_closed_form``: explicit coordinates in the
  intercept/slope parameters, dispatched over every axis-parallel special
  case.
* ``oracle_point``: a definitional solve.  Parametrize the candidate along
  ``l`` and impose each shifted-membership condition as a tiny linear system;
  the two systems must agree on the parameter.

Agreement of all three is the module's central correctness property.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Tuple

from .axis_projection import _eliminate
from .errors import (
    CaseUnavailableError,
    InconsistentError,
    OriginOnLineError,
    ParallelLinesError,
    PreconditionError,
    SingularSystemError,
)
from .kernel import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Line,
    Point,
    contains,
    exact_str,
    intersect,
    is_parallel,
    translate,
)
from .linsolve import solve_unique


class ProjectionCase(Enum):
    HORIZONTAL_A = "HORIZONTAL_A"
    VERTICAL_B = "VERTICAL_B"


@dataclass(frozen=True)
class TransversalScene:
    """A parallel pair plus a transversal; validated on construction."""

    g_s: Line
    g_t: Line
    l: Line

    def __post_init__(self):
        if not is_parallel(self.g_s, self.g_t):
            raise PreconditionError("the two base lines must be parallel")
        if is_parallel(self.l, self.g_s):
            raise ParallelLinesError("transversal is parallel to the base lines")
        if contains(self.l, ORIGIN):
            raise OriginOnLineError("transversal passes through the origin")

    def crossings(self) -> Tuple[Point, Point]:
        """S and T: where the transversal meets g_s and g_t."""
        return intersect(self.l, self.g_s), intersect(self.l, self.g_t)


@dataclass(frozen=True)
class ProjectionWitness:
    """A constructed point plus everything needed to re-check its defining
    equations: the ray parameter rho and the collinearity factors alpha
    (for the T-ray) and beta (for the S-ray)."""

    point: Point
    rho: Fraction
    alpha: Fraction
    beta: Fraction
    s: Point
    t: Point
    a_or_b_s: Fraction
    a_or_b_t: Fraction
    case_tag: ProjectionCase


def _shift_axis(scene: TransversalScene, case: ProjectionCase) -> Line:
    """The x- or y-axis the case shifts along; CaseUnavailableError when the
    base lines are parallel to it.  Also the closed forms' and oracle's guard."""
    horizontal = case is ProjectionCase.HORIZONTAL_A
    if scene.g_s.is_horizontal if horizontal else scene.g_s.is_vertical:
        word = "horizontal" if horizontal else "vertical"
        raise CaseUnavailableError(
            f"{word}-shift point does not exist when the base lines are {word}"
        )
    return X_AXIS if horizontal else Y_AXIS


def _eliminate_on(scene: TransversalScene, case: ProjectionCase):
    """:func:`~.axis_projection._eliminate` on the case's axis at the origin."""
    return _eliminate(scene.g_s, scene.g_t, scene.l, _shift_axis(scene, case), ORIGIN)


def _factor(p: Point, q: Point, shift: Fraction, case: ProjectionCase) -> Fraction:
    """f with ``p`` moved back by ``shift`` along the case's axis equal to
    f * ``q``: read off the coordinate across the axis unless ``q`` is on it."""
    if case is ProjectionCase.HORIZONTAL_A:
        return p.y / q.y if q.y != 0 else (p.x - shift) / q.x
    return p.x / q.x if q.x != 0 else (p.y - shift) / q.y


def _witness(scene: TransversalScene, case: ProjectionCase) -> ProjectionWitness:
    s, t, w, _, shift_s, shift_t, rho_1, rho_2 = _eliminate_on(scene, case)
    if rho_1 != rho_2:
        raise InconsistentError(
            f"{case.value} eliminations disagree: {exact_str(rho_1)} vs {exact_str(rho_2)}"
        )
    point = translate(s, w, rho_1)
    return ProjectionWitness(
        point=point,
        rho=rho_1,
        alpha=_factor(point, t, shift_s, case),
        beta=_factor(point, s, shift_t, case),
        s=s,
        t=t,
        a_or_b_s=shift_s,
        a_or_b_t=shift_t,
        case_tag=case,
    )


def rho_pair(scene: TransversalScene) -> Tuple[Fraction, Fraction]:
    """The two independent eliminations of the horizontal-case parameter.

    Both components are always equal on valid input; returning the raw pair
    lets callers assert that instead of trusting it.
    """
    *_, rho_1, rho_2 = _eliminate_on(scene, ProjectionCase.HORIZONTAL_A)
    return rho_1, rho_2


def rho_tilde_pair(scene: TransversalScene) -> Tuple[Fraction, Fraction]:
    """Vertical-case counterpart of :func:`rho_pair`."""
    *_, rho_1, rho_2 = _eliminate_on(scene, ProjectionCase.VERTICAL_B)
    return rho_1, rho_2


def p_hor(scene: TransversalScene) -> ProjectionWitness:
    """The horizontal-case point, with full witness data.

    The witness satisfies: point on ``l``; (point.x - a_s, point.y) equals
    alpha * T (hence lies on Z_T); (point.x - a_t, point.y) equals beta * S.
    """
    return _witness(scene, ProjectionCase.HORIZONTAL_A)


def p_ver(scene: TransversalScene) -> ProjectionWitness:
    """The vertical-case point: shifts go down by the y-intercepts.

    The witness satisfies: point on ``l``; (point.x, point.y - b_s) equals
    alpha * T; (point.x, point.y - b_t) equals beta * S.
    """
    return _witness(scene, ProjectionCase.VERTICAL_B)


def _nonzero(value: Fraction, what: str) -> Fraction:
    if value == 0:
        raise SingularSystemError(f"zero denominator in closed form ({what})")
    return value


def p_hor_closed_form(scene: TransversalScene) -> Point:
    """Explicit coordinates of the horizontal-case point.

    Dispatch: base-line orientation first, then transversal orientation.
    Every branch is a distinct published formula; all agree with
    :func:`p_hor` and :func:`oracle_point`.
    """
    _shift_axis(scene, ProjectionCase.HORIZONTAL_A)
    g_s, g_t, l = scene.g_s, scene.g_t, scene.l
    if g_s.is_vertical:
        a_s, a_t = g_s.x_intercept(), g_t.x_intercept()
        if l.is_horizontal:
            return Point(a_s + a_t, l.y_intercept())
        # l is not vertical here: it cannot be parallel to the base lines
        m_l, b_l = l.slope(), l.y_intercept()
        x = (b_l * (a_s + a_t) + m_l * a_s * a_t) / _nonzero(b_l, "transversal offset")
        return Point(x, m_l * x + b_l)
    m = g_s.slope()
    b_s, b_t = g_s.y_intercept(), g_t.y_intercept()
    if l.is_horizontal:
        b_l = l.y_intercept()
        return Point((b_l - b_s - b_t) / m, b_l)
    if l.is_vertical:
        a_l = _nonzero(l.x_intercept(), "transversal x-intercept")
        return Point(a_l, m * a_l + b_s + b_t + b_s * b_t / (a_l * m))
    m_l, b_l = l.slope(), l.y_intercept()
    den = _nonzero(b_l * m * (m - m_l), "general-position denominator")
    x = (b_l * b_l * m + b_s * b_t * m_l - m * b_l * (b_s + b_t)) / den
    y = (b_l * b_l * m * m + b_s * b_t * m_l * m_l - m * m_l * b_l * (b_s + b_t)) / den
    return Point(x, y)


def p_ver_closed_form(scene: TransversalScene) -> Point:
    """Explicit coordinates of the vertical-case point."""
    _shift_axis(scene, ProjectionCase.VERTICAL_B)
    g_s, g_t, l = scene.g_s, scene.g_t, scene.l
    if g_s.is_horizontal:
        b_s, b_t = g_s.y_intercept(), g_t.y_intercept()
        if l.is_vertical:
            return Point(l.x_intercept(), b_s + b_t)
        m_l, b_l = l.slope(), l.y_intercept()
        x = (b_t - b_l) * (b_l - b_s) / _nonzero(b_l * m_l, "sloped-transversal denominator")
        return Point(x, (b_l * b_s + b_l * b_t - b_s * b_t) / b_l)
    m = g_s.slope()
    b_s, b_t = g_s.y_intercept(), g_t.y_intercept()
    if l.is_horizontal:
        b_l = _nonzero(l.y_intercept(), "transversal y-intercept")
        return Point((b_l - b_s) * (b_l - b_t) / (b_l * m), b_l)
    if l.is_vertical:
        a_l = l.x_intercept()
        return Point(a_l, m * a_l + b_t + b_s)
    m_l, b_l = l.slope(), l.y_intercept()
    den = _nonzero(b_l * (m - m_l), "general-position denominator")
    x = (b_l - b_t) * (b_l - b_s) / den
    y = (m_l * (b_s * b_t - b_l * b_s - b_l * b_t) + b_l * b_l * m) / den
    return Point(x, y)


def oracle_point(scene: TransversalScene, case: ProjectionCase) -> Point:
    """Definitional solve, independent of the elimination formulas.

    The candidate is S + t*w for the transversal direction w.  Moved back
    along the case's axis by a base line's intercept on it, it is alpha*T
    for g_s and beta*S for g_t: two 2x2 systems in (t, alpha) and (t, beta),
    solved exactly, which must agree on t.  Disagreement would falsify the
    uniqueness claim, so it surfaces as an inconsistency, not an answer.
    """
    horizontal = _shift_axis(scene, case).is_horizontal
    s, t_pt = scene.crossings()
    w = scene.l.direction()
    minus_sx, minus_sy = -s.x, -s.y
    first, second = (
        solve_unique(
            [[w.dx, -ray.x], [w.dy, -ray.y]],
            [minus_sx + g.x_intercept(), minus_sy] if horizontal
            else [minus_sx, minus_sy + g.y_intercept()],
        )
        for g, ray in ((scene.g_s, t_pt), (scene.g_t, s))
    )
    if first[0] != second[0]:
        raise InconsistentError(
            "membership systems disagree on the ray parameter: "
            f"{exact_str(first[0])} vs {exact_str(second[0])}"
        )
    return translate(s, w, first[0])
