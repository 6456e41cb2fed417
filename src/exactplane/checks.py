"""Seeded randomized verification of every construction-level guarantee.

Each property owns a deterministic RNG stream derived from ``(seed, name)``,
generates scenes by rejection sampling over small rationals, and re-checks a
guarantee exactly; a counterexample is reported as a replayable CLI command
wherever a subcommand exists for the scene.  Identical seed and trial count
give byte-identical summaries: no wall-clock, no global state, no threads.

The closed-form comparisons deliberately call their targets through the
module objects (``dp.p_hor_closed_form`` and friends) so a test harness can
inject a perturbed implementation and confirm the suite catches it.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import axis_projection as ap
from . import double_projection as dp
from . import parallelogram as pg
from . import parallelogram_axis as pga
from .errors import GeomError
from .kernel import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Direction,
    Frame,
    Line,
    Point,
    contains,
    dist_sq,
    intersect,
    is_parallel,
    line_from_points,
    line_through,
    midpoint,
    translate,
)
from .linsolve import solve_unique
from .textio import format_line, format_point, format_scalar, format_value

_MAX_REJECTS = 10_000


def _exhausted(what: str) -> RuntimeError:
    return RuntimeError(f"generator failed to produce {what}; widen its ranges")


# ---------------------------------------------------------------- generators

def _scalar(rng: random.Random, nonzero: bool = False) -> Fraction:
    for _ in range(_MAX_REJECTS):
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if value != 0 or not nonzero:
            return value
    raise _exhausted("a scalar")


def _point(rng: random.Random) -> Point:
    return Point(_scalar(rng), _scalar(rng))


def _oriented_line(rng: random.Random, orient: str, avoid_origin: bool = False) -> Line:
    """orient: sloped | horizontal | vertical | any (weighted mix)."""
    if orient == "any":
        orient = rng.choices(
            ("sloped", "horizontal", "vertical"), weights=(7, 2, 2)
        )[0]
    if orient == "horizontal":
        return Line(0, 1, _scalar(rng, nonzero=avoid_origin))
    if orient == "vertical":
        return Line(1, 0, _scalar(rng, nonzero=avoid_origin))
    m = _scalar(rng, nonzero=True)
    return Line(-m, 1, _scalar(rng, nonzero=avoid_origin))


def _parallel_of(l: Line, rng: random.Random, avoid_origin: bool = False) -> Line:
    return Line(l.a, l.b, _scalar(rng, nonzero=avoid_origin))


def _point_on(l: Line, rng: random.Random) -> Point:
    if l.is_vertical:
        return Point(l.c / l.a, _scalar(rng))
    x = _scalar(rng)
    return Point(x, (l.c - l.a * x) / l.b)


def _direction(rng: random.Random) -> Direction:
    for _ in range(_MAX_REJECTS):
        dx, dy = _scalar(rng), _scalar(rng)
        if dx != 0 or dy != 0:
            return Direction(dx, dy)
    raise _exhausted("a direction")


def _transversal_direction(rng: random.Random, axis: Line) -> Direction:
    """A direction not parallel to ``axis``."""
    for _ in range(_MAX_REJECTS):
        d = _direction(rng)
        if not is_parallel(line_through(ORIGIN, d), axis):
            return d
    raise _exhausted("a transversal direction")


def _transversal_scene(
    rng: random.Random,
    g_orient: str = "any",
    l_orient: str = "any",
    coincident: bool = False,
) -> dp.TransversalScene:
    for _ in range(_MAX_REJECTS):
        g_s = _oriented_line(rng, g_orient)
        g_t = g_s if coincident else _parallel_of(g_s, rng)
        l = _oriented_line(rng, l_orient, avoid_origin=True)
        if is_parallel(l, g_s):
            continue
        return dp.TransversalScene(g_s=g_s, g_t=g_t, l=l)
    raise _exhausted("a transversal scene")


def _line_through_point(
    rng: random.Random, q: Point, not_parallel_to: Line, avoid_origin: bool
) -> Line:
    for _ in range(_MAX_REJECTS):
        d = _direction(rng)
        l = line_through(q, d)
        if is_parallel(l, not_parallel_to):
            continue
        if avoid_origin and contains(l, ORIGIN):
            continue
        return l
    raise _exhausted("a line through the given point")


def _on_any(q: Point, *lines: Line) -> bool:
    return any(contains(l, q) for l in lines)


def _axis_scene_main(rng: random.Random) -> ap.AxisScene:
    for _ in range(_MAX_REJECTS):
        base = _transversal_scene(rng)
        axis = _oriented_line(rng, "any")
        if is_parallel(axis, base.g_s) or axis == base.l:
            continue
        origin = _point_on(axis, rng)
        if _on_any(origin, base.l, base.g_s, base.g_t):
            continue
        s, t = base.crossings()
        if contains(axis, s) or contains(axis, t):
            continue  # keep the dispatch in the main case
        return ap.AxisScene(
            g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis, origin=origin
        )
    raise _exhausted("a main-case axis scene")


def _shifted_ray_parallel(g: Line, eps: Fraction) -> bool:
    """True when the ray from the origin through a source shifted by +-eps
    along the x-axis is parallel to ``g``: b_g +- m*eps = 0 for a sloped or
    horizontal ``g``, r +- eps = 0 for a vertical one."""
    if g.is_vertical:
        r = g.x_intercept()
        return r - eps == 0 or r + eps == 0
    m, b_g = g.slope(), g.y_intercept()
    return b_g + m * eps == 0 or b_g - m * eps == 0


def _strip_triple(rng: random.Random, orient: str = "any") -> Tuple[Line, Line, Fraction]:
    for _ in range(_MAX_REJECTS):
        g = _oriented_line(rng, orient, avoid_origin=True)
        p = _parallel_of(g, rng)
        eps = abs(_scalar(rng))
        if not _shifted_ray_parallel(g, eps):
            return g, p, eps
    raise _exhausted("a strip triple")


def _strip_sample(rng: random.Random, g: Line, for_swap: bool = False) -> Point:
    for _ in range(_MAX_REJECTS):
        q = _point_on(g, rng)
        if q.y != 0 and (not for_swap or q.x != 0):
            return q
    raise _exhausted("a sample point")


def _admits_axis_strip_sample(
    p: Line, axis: Line, origin: Point, offset: Fraction, sample: Point
) -> bool:
    """The sample is off the axis and neither shifted source's ray from the
    center is parallel to ``p``."""
    if contains(axis, sample):
        return False
    d = axis.direction()
    return not any(
        is_parallel(line_from_points(origin, translate(sample, d, shift)), p)
        for shift in (-offset, offset)
    )


def _axis_strip_scene(rng: random.Random) -> pga.AxisStripScene:
    for _ in range(_MAX_REJECTS):
        axis = _oriented_line(rng, "any")
        origin = _point_on(axis, rng)
        g = _oriented_line(rng, "any")
        if contains(g, origin):
            continue
        p = _parallel_of(g, rng)
        offset = _scalar(rng)
        sample = _point_on(g, rng)
        if not _admits_axis_strip_sample(p, axis, origin, offset, sample):
            continue
        return pga.AxisStripScene(
            g=g, p=p, axis=axis, origin=origin, offset=offset, sample=sample
        )
    raise _exhausted("an axis strip scene")


def _random_frame(rng: random.Random) -> Frame:
    for _ in range(_MAX_REJECTS):
        m00, m01 = _scalar(rng), _scalar(rng)
        m10, m11 = _scalar(rng), _scalar(rng)
        if m00 * m11 - m01 * m10 == 0:
            continue
        return Frame(((m00, m01), (m10, m11)), _point(rng))
    raise _exhausted("an invertible frame")


# ------------------------------------------------------------ replay helper

def _replay(sub: str, scene) -> str:
    """The CLI command that re-runs ``scene``: one flag per scene field,
    ``--line-<name>`` for a line and ``--<name>`` otherwise."""
    words = ["exactplane", sub]
    for f in fields(scene):
        value = getattr(scene, f.name)
        name = f.name.replace("_", "-")
        flag = f"--line-{name}" if isinstance(value, Line) else f"--{name}"
        text = shlex.quote(format_value(value))
        # argparse reads "-3/2" as an option, so a leading '-' needs "="
        words.append(f"{flag}={text}" if text.startswith("-") else f"{flag} {text}")
    return " ".join(words)


# ------------------------------------------------------------- the properties

def _check_kernel_intersection(rng: random.Random, k: int) -> Optional[str]:
    for _ in range(_MAX_REJECTS):
        l1 = _oriented_line(rng, "any")
        l2 = _oriented_line(rng, "any")
        if not is_parallel(l1, l2):
            break
    else:
        raise _exhausted("a non-parallel pair")
    q = intersect(l1, l2)
    if not (contains(l1, q) and contains(l2, q)):
        return (
            f"intersection {format_point(q)} misses one of "
            f"{format_line(l1)}, {format_line(l2)}"
        )
    return None


def _check_frame_round_trip(rng: random.Random, k: int) -> Optional[str]:
    from .kernel import frame_to_standard

    axis = _oriented_line(rng, "any")
    origin = _point_on(axis, rng)
    d = _transversal_direction(rng, axis)
    frame = frame_to_standard(origin, axis, d)
    if frame.apply(origin) != ORIGIN:
        return f"frame does not send {format_point(origin)} to the origin"
    if frame.apply(_point_on(axis, rng)).y != 0:
        return "frame does not flatten the axis onto the x-axis"
    image_d = frame.apply_direction(d)
    if (image_d.dx, image_d.dy) != (0, 1):
        return (
            "frame sends the transversal direction to "
            f"({format_scalar(image_d.dx)}, {format_scalar(image_d.dy)}), not (0, 1)"
        )
    inverse = frame.inverse()
    for _ in range(3):
        q = _point(rng)
        if inverse.apply(frame.apply(q)) != q:
            return f"round trip moved {format_point(q)}"
    l1 = _oriented_line(rng, "any")
    l2 = _parallel_of(l1, rng)
    if not is_parallel(frame.apply_line(l1), frame.apply_line(l2)):
        return "parallelism lost under the frame"
    q1, q2 = _point(rng), _point(rng)
    shift = _direction(rng)
    p1, p2 = translate(q1, shift, 1), translate(q2, shift, 1)
    lhs = dist_sq(frame.apply(q1), frame.apply(p1))
    rhs = dist_sq(frame.apply(q2), frame.apply(p2))
    if (dist_sq(q1, p1) == dist_sq(q2, p2)) != (lhs == rhs):
        return "equal parallel segments mapped to unequal ones"
    line = _oriented_line(rng, "any")
    q = _point_on(line, rng)
    if not contains(frame.apply_line(line), frame.apply(q)):
        return "incidence lost under the frame"
    return None


def _rho_oracle(scene: dp.TransversalScene, tilde: bool) -> Fraction:
    """Ray parameter from the full 4-equation, 3-unknown linear system."""
    s, t = scene.crossings()
    w = scene.l.direction()
    rows = [
        [w.dx, -t.x, 0],
        [w.dy, -t.y, 0],
        [w.dx, 0, -s.x],
        [w.dy, 0, -s.y],
    ]
    if tilde:
        b_s = scene.g_s.y_intercept()
        b_t = scene.g_t.y_intercept()
        rhs = [-s.x, b_s - s.y, -s.x, b_t - s.y]
    else:
        a_s = scene.g_s.x_intercept()
        a_t = scene.g_t.x_intercept()
        rhs = [a_s - s.x, -s.y, a_t - s.x, -s.y]
    return solve_unique(rows, rhs)[0]


def _check_rho_identity(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng, g_orient=("sloped", "vertical")[k % 2])
    first, second = dp.rho_pair(scene)
    if first != second:
        return f"ray-parameter pair differs: {first} vs {second}; replay: {_replay('phor', scene)}"
    if first != _rho_oracle(scene, tilde=False):
        return f"pair disagrees with the linear-system solve; replay: {_replay('phor', scene)}"
    return None


def _check_rho_tilde_identity(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng, g_orient=("sloped", "horizontal")[k % 2])
    first, second = dp.rho_tilde_pair(scene)
    if first != second:
        return f"ray-parameter pair differs: {first} vs {second}; replay: {_replay('pver', scene)}"
    if first != _rho_oracle(scene, tilde=True):
        return f"pair disagrees with the linear-system solve; replay: {_replay('pver', scene)}"
    return None


_PROP1_STRATA: Sequence[Tuple[str, str, bool]] = (
    ("sloped", "sloped", False),
    ("sloped", "horizontal", False),
    ("sloped", "vertical", False),
    ("horizontal", "sloped", False),
    ("horizontal", "vertical", False),
    ("vertical", "sloped", False),
    ("vertical", "horizontal", False),
    ("any", "any", True),
)


def _check_closed_form_agreement(rng: random.Random, k: int) -> Optional[str]:
    g_orient, l_orient, coincident = _PROP1_STRATA[k % len(_PROP1_STRATA)]
    scene = _transversal_scene(rng, g_orient, l_orient, coincident)
    if not scene.g_s.is_horizontal:
        a = dp.p_hor(scene).point
        b = dp.p_hor_closed_form(scene)
        c = dp.oracle_point(scene, dp.ProjectionCase.HORIZONTAL_A)
        if not (a == b == c):
            return (
                f"horizontal case disagrees: formula {a}, closed form {b}, oracle {c}; "
                f"replay: {_replay('phor', scene)}"
            )
    if not scene.g_s.is_vertical:
        a = dp.p_ver(scene).point
        b = dp.p_ver_closed_form(scene)
        c = dp.oracle_point(scene, dp.ProjectionCase.VERTICAL_B)
        if not (a == b == c):
            return (
                f"vertical case disagrees: formula {a}, closed form {b}, oracle {c}; "
                f"replay: {_replay('pver', scene)}"
            )
    return None


def _check_shifted_membership(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng)
    s, t = scene.crossings()
    z_s = line_from_points(ORIGIN, s)
    z_t = line_from_points(ORIGIN, t)
    if not scene.g_s.is_horizontal:
        w = dp.p_hor(scene)
        shifted_s = Point(w.point.x - w.a_or_b_s, w.point.y)
        shifted_t = Point(w.point.x - w.a_or_b_t, w.point.y)
        if not contains(scene.l, w.point):
            return f"point off the transversal; replay: {_replay('phor', scene)}"
        if shifted_s != Point(w.alpha * t.x, w.alpha * t.y) or not contains(z_t, shifted_s):
            return f"left-shifted point misses the T ray; replay: {_replay('phor', scene)}"
        if shifted_t != Point(w.beta * s.x, w.beta * s.y) or not contains(z_s, shifted_t):
            return f"left-shifted point misses the S ray; replay: {_replay('phor', scene)}"
    if not scene.g_s.is_vertical:
        w = dp.p_ver(scene)
        shifted_s = Point(w.point.x, w.point.y - w.a_or_b_s)
        shifted_t = Point(w.point.x, w.point.y - w.a_or_b_t)
        if not contains(scene.l, w.point):
            return f"point off the transversal; replay: {_replay('pver', scene)}"
        if shifted_s != Point(w.alpha * t.x, w.alpha * t.y) or not contains(z_t, shifted_s):
            return f"down-shifted point misses the T ray; replay: {_replay('pver', scene)}"
        if shifted_t != Point(w.beta * s.x, w.beta * s.y) or not contains(z_s, shifted_t):
            return f"down-shifted point misses the S ray; replay: {_replay('pver', scene)}"
    return None


def _check_trivial_intercepts(rng: random.Random, k: int) -> Optional[str]:
    # force one crossing onto a coordinate axis; the construction must
    # return that crossing itself
    case = k % 4
    g = _oriented_line(rng, "sloped", avoid_origin=True)
    other = _parallel_of(g, rng)
    # cases 0/1 pin S or T to the x-axis, cases 2/3 to the y-axis
    pinned = Point(g.x_intercept(), 0) if case in (0, 1) else Point(0, g.y_intercept())
    l = _line_through_point(rng, pinned, g, avoid_origin=True)
    g_s, g_t = (g, other) if case in (0, 2) else (other, g)
    scene = dp.TransversalScene(g_s=g_s, g_t=g_t, l=l)
    if case in (0, 1):
        result = dp.p_hor(scene).point
        sub = "phor"
    else:
        result = dp.p_ver(scene).point
        sub = "pver"
    if result != pinned:
        return (
            f"axis-pinned crossing {format_point(pinned)} not returned (got "
            f"{format_point(result)}); replay: {_replay(sub, scene)}"
        )
    return None


def _check_uniqueness(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng)
    s, t = scene.crossings()
    z_s = line_from_points(ORIGIN, s)
    z_t = line_from_points(ORIGIN, t)
    w = scene.l.direction()
    if not scene.g_s.is_horizontal:
        witness = dp.p_hor(scene)
        for _ in range(3):
            q = translate(witness.point, w, _scalar(rng, nonzero=True))
            ok_t = contains(z_t, Point(q.x - witness.a_or_b_s, q.y))
            ok_s = contains(z_s, Point(q.x - witness.a_or_b_t, q.y))
            if ok_t and ok_s:
                return (
                    f"second point {format_point(q)} also satisfies both memberships; "
                    f"replay: {_replay('phor', scene)}"
                )
    if not scene.g_s.is_vertical:
        witness = dp.p_ver(scene)
        for _ in range(3):
            q = translate(witness.point, w, _scalar(rng, nonzero=True))
            ok_t = contains(z_t, Point(q.x, q.y - witness.a_or_b_s))
            ok_s = contains(z_s, Point(q.x, q.y - witness.a_or_b_t))
            if ok_t and ok_s:
                return (
                    f"second point {format_point(q)} also satisfies both memberships; "
                    f"replay: {_replay('pver', scene)}"
                )
    return None


def _check_axis_main_contract(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_scene_main(rng)
    result = ap.construct_p(scene)
    if result.case_tag is not ap.AxisCase.MAIN:
        return (
            f"expected the main case, got {result.case_tag.value}; "
            f"replay: {_replay('construct-p', scene)}"
        )
    failed = [name for name, ok in ap.verify_p2(result).items() if not ok]
    if failed:
        return f"contract checks failed: {', '.join(failed)}; replay: {_replay('construct-p', scene)}"
    if scene.g_s != scene.g_t and result.z_s == result.z_t:
        return f"distinct base lines produced equal rays; replay: {_replay('construct-p', scene)}"
    return None


def _check_axis_degenerate(rng: random.Random, k: int) -> Optional[str]:
    want_s = k % 2 == 0
    for _ in range(_MAX_REJECTS):
        base = _transversal_scene(rng)
        s, t = base.crossings()
        pinned = s if want_s else t
        axis = _line_through_point(rng, pinned, base.g_s, avoid_origin=False)
        if axis == base.l:
            continue
        origin = _point_on(axis, rng)
        if _on_any(origin, base.l, base.g_s, base.g_t):
            continue
        other = t if want_s else s
        if contains(axis, other):
            continue  # keep exactly one crossing pinned
        scene = ap.AxisScene(
            g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis, origin=origin
        )
        break
    else:
        raise _exhausted("a degenerate axis scene")
    result = ap.construct_p(scene)
    expected = ap.AxisCase.S_COINCIDES if want_s else ap.AxisCase.T_COINCIDES
    if result.case_tag is not expected:
        return (
            f"expected {expected.value}, got {result.case_tag.value}; "
            f"replay: {_replay('construct-p', scene)}"
        )
    if result.p != pinned:
        return (
            f"degenerate case did not return the pinned crossing; "
            f"replay: {_replay('construct-p', scene)}"
        )
    companion = result.t_p if want_s else result.s_p
    if companion != scene.origin:
        return f"companion point is not the center; replay: {_replay('construct-p', scene)}"
    failed = [name for name, ok in ap.verify_p2(result).items() if not ok]
    if failed:
        return f"contract checks failed: {', '.join(failed)}; replay: {_replay('construct-p', scene)}"
    return None


def _check_axis_reduction(rng: random.Random, k: int) -> Optional[str]:
    horizontal = k % 2 == 0
    for _ in range(_MAX_REJECTS):
        # sloped base lines keep both coordinate axes transversal to the pair
        scene = _transversal_scene(rng, g_orient="sloped")
        if contains(scene.g_s, ORIGIN) or contains(scene.g_t, ORIGIN):
            continue
        axis = X_AXIS if horizontal else Y_AXIS
        s, t = scene.crossings()
        if contains(axis, s) or contains(axis, t):
            continue  # stay in the main case so the comparison is non-trivial
        full = ap.AxisScene(
            g_s=scene.g_s, g_t=scene.g_t, l=scene.l, axis=axis, origin=ORIGIN
        )
        break
    else:
        raise _exhausted("a reducible axis scene")
    got = ap.construct_p(full).p
    want = dp.p_hor(scene).point if horizontal else dp.p_ver(scene).point
    if got != want:
        return (
            f"axis construction gives {format_point(got)} but the direct one gives "
            f"{format_point(want)}; replay: {_replay('construct-p', full)}"
        )
    return None


def _check_axis_frame_choice(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_scene_main(rng)
    reference = ap.construct_p(scene).p
    for _ in range(2):
        d = _transversal_direction(rng, scene.axis)
        other = ap.construct_p(scene, transversal=d).p
        if other != reference:
            return (
                f"point depends on the reduction frame: {format_point(reference)} vs "
                f"{format_point(other)}; replay: {_replay('construct-p', scene)}"
            )
    return None


def _check_strip_sample_invariance(rng: random.Random, k: int) -> Optional[str]:
    g, p, eps = _strip_triple(rng)
    expected: Optional[Fraction] = None
    first_scene: Optional[pg.StripScene] = None
    for _ in range(10):
        sample = _strip_sample(rng, g)
        scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=sample)
        value = pg.nu(scene)
        closed = pg.nu_closed_form(scene)
        if value != closed:
            return (
                f"pipeline {value} vs closed form {closed}; "
                f"replay: {_replay('nu', scene)}"
            )
        if expected is None:
            expected, first_scene = value, scene
        elif value != expected:
            return (
                f"sample moved the intercept: {expected} vs {value}; "
                f"replay: {_replay('nu', scene)} and {_replay('nu', first_scene)}"
            )
    return None


def _check_strip_slope_invariance(rng: random.Random, k: int) -> Optional[str]:
    b_g = _scalar(rng, nonzero=True)
    b_p = _scalar(rng)
    eps = abs(_scalar(rng))
    expected = b_p * eps / b_g
    seen = 0
    for _ in range(_MAX_REJECTS):
        if seen == 10:
            return None
        m = _scalar(rng, nonzero=True)
        g = Line(-m, 1, b_g)
        if _shifted_ray_parallel(g, eps):
            continue
        scene = pg.StripScene(
            g=g, p=Line(-m, 1, b_p), epsilon=eps, sample=_strip_sample(rng, g)
        )
        value = pg.nu(scene)
        if value != expected:
            return (
                f"slope changed the intercept: got {value}, want {expected}; "
                f"replay: {_replay('nu', scene)}"
            )
        seen += 1
    raise _exhausted("slopes for the invariance sweep")


def _check_strip_closed_forms(rng: random.Random, k: int) -> Optional[str]:
    g, p, eps = _strip_triple(rng, orient=("sloped", "horizontal")[k % 2])
    scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=_strip_sample(rng, g))
    w = pg.build_witness(scene)
    s_bar, t_bar = pg.s_bar_t_bar_closed_form(scene)
    if (s_bar, t_bar) != (w.s_bar, w.t_bar):
        return f"projection closed form disagrees; replay: {_replay('nu', scene)}"
    if w.t_bar != w.neg_s_bar and pg.connecting_line(scene) != w.connecting_line:
        return f"connecting-line closed form disagrees; replay: {_replay('nu', scene)}"
    if pg.minus_nu_check(scene) != -w.nu:
        return f"mirror intercept is not the negation; replay: {_replay('nu', scene)}"
    if midpoint(w.s_bar, w.neg_s_bar) != ORIGIN or midpoint(w.t_bar, w.neg_t_bar) != ORIGIN:
        return f"corners are not centrally symmetric; replay: {_replay('nu', scene)}"
    corners = {w.s_bar, w.t_bar, w.neg_s_bar, w.neg_t_bar}
    if len(corners) == 4:
        side = line_from_points(w.s_bar, w.t_bar)
        opposite = line_from_points(w.neg_s_bar, w.neg_t_bar)
        if not is_parallel(side, opposite):
            return f"opposite sides not parallel; replay: {_replay('nu', scene)}"
    return None


def _check_strip_degenerate(rng: random.Random, k: int) -> Optional[str]:
    if k % 2 == 0:  # zero spread
        g, p, _ = _strip_triple(rng)
        scene = pg.StripScene(g=g, p=p, epsilon=0, sample=_strip_sample(rng, g))
        w = pg.build_witness(scene)
        if w.nu != 0 or w.s_bar != w.t_bar:
            return f"zero spread did not collapse; replay: {_replay('nu', scene)}"
        if not contains(w.connecting_line, ORIGIN):
            return f"zero-spread line misses the origin; replay: {_replay('nu', scene)}"
    else:  # second line through the origin
        for _ in range(_MAX_REJECTS):
            g = _oriented_line(rng, "sloped", avoid_origin=True)
            eps = abs(_scalar(rng))
            if not _shifted_ray_parallel(g, eps):
                break
        else:
            raise _exhausted("a collapsing strip scene")
        p = Line(g.a, g.b, 0)
        scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=_strip_sample(rng, g))
        w = pg.build_witness(scene)
        if not (w.s_bar == w.t_bar == w.neg_s_bar == w.neg_t_bar == ORIGIN):
            return f"corners did not collapse onto the origin; replay: {_replay('nu', scene)}"
        if w.nu != 0:
            return f"collapsed scene has nonzero intercept; replay: {_replay('nu', scene)}"
    return None


def _check_swap_invariance(rng: random.Random, k: int) -> Optional[str]:
    for _ in range(_MAX_REJECTS):
        g, p, eps = _strip_triple(rng)
        if not _shifted_ray_parallel(pg.swap_line(g), eps):
            break
    else:
        raise _exhausted("a swappable strip triple")
    expected: Optional[Fraction] = None
    for _ in range(10):
        sample = _strip_sample(rng, g, for_swap=True)
        scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=sample)
        value = pg.mu(scene)
        if value != pg.mu_closed_form(scene):
            return f"swap closed form disagrees; replay: {_replay('mu', scene)}"
        if not g.is_horizontal:
            conjectured = p.x_intercept() * eps / g.x_intercept()
            if value != conjectured:
                return (
                    f"swap value {value} differs from the x-intercept formula "
                    f"{conjectured}; replay: {_replay('mu', scene)}"
                )
        if expected is None:
            expected = value
        elif value != expected:
            return f"swap value moved with the sample; replay: {_replay('mu', scene)}"
    return None


def _check_axis_strip_invariance(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_strip_scene(rng)
    reference = pga.nu_general(scene).nu_point
    for _ in range(10):
        for _ in range(_MAX_REJECTS):
            sample = _point_on(scene.g, rng)
            if _admits_axis_strip_sample(
                scene.p, scene.axis, scene.origin, scene.offset, sample
            ):
                break
        else:
            raise _exhausted("a valid sample")
        candidate = pga.AxisStripScene(
            g=scene.g, p=scene.p, axis=scene.axis, origin=scene.origin,
            offset=scene.offset, sample=sample,
        )
        value = pga.nu_general(candidate).nu_point
        if value != reference:
            return (
                f"axis point moved with the sample: {format_point(reference)} vs "
                f"{format_point(value)}; replay: {_replay('nu-general', candidate)}"
            )
    return None


def _check_axis_strip_equivariance(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_strip_scene(rng)
    frame = _random_frame(rng)
    moved = pga.transform_scene(scene, frame)
    want = frame.apply(pga.nu_general(scene).nu_point)
    got = pga.nu_general(moved).nu_point
    if got != want:
        return (
            f"frame transport broke: want {format_point(want)}, got {format_point(got)}; "
            f"replay: {_replay('nu-general', scene)}"
        )
    return None


def _check_axis_strip_reduction(rng: random.Random, k: int) -> Optional[str]:
    # horizontal pairs included: there the x-axis is parallel to the pair
    g, p, eps = _strip_triple(rng)
    sample = _strip_sample(rng, g)
    general = pga.AxisStripScene(
        g=g, p=p, axis=X_AXIS, origin=ORIGIN, offset=eps, sample=sample
    )
    nu_point = pga.nu_general(general).nu_point
    value = pg.nu_closed_form(pg.StripScene(g=g, p=p, epsilon=eps, sample=sample))
    if nu_point != Point(value, 0):
        return (
            f"general construction gives {format_point(nu_point)}, closed form "
            f"{value}; replay: {_replay('nu-general', general)}"
        )
    return None


def _check_error_codes(rng: random.Random, k: int) -> Optional[str]:
    case = k % 4
    if case == 0:  # transversal through the origin
        g = _oriented_line(rng, "sloped", avoid_origin=True)
        l = line_through(ORIGIN, _direction(rng))
        if is_parallel(l, g):
            return None  # overlap with the parallel case; skip this draw
        try:
            dp.TransversalScene(g_s=g, g_t=_parallel_of(g, rng), l=l)
        except GeomError as err:
            return None if err.code == "E_ORIGIN_ON_L" else (
                f"expected E_ORIGIN_ON_L, got {err.code}"
            )
        return "origin-on-transversal scene was accepted"
    if case == 1:  # transversal parallel to the pair
        g = _oriented_line(rng, "any", avoid_origin=True)
        try:
            dp.TransversalScene(
                g_s=g, g_t=_parallel_of(g, rng), l=_parallel_of(g, rng, avoid_origin=True)
            )
        except GeomError as err:
            return None if err.code == "E_PARALLEL" else (
                f"expected E_PARALLEL, got {err.code}"
            )
        return "parallel transversal was accepted"
    if case == 2:  # axis parallel to the pair
        base = _transversal_scene(rng)
        axis = _parallel_of(base.g_s, rng)
        try:
            ap.AxisScene(
                g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis,
                origin=_point_on(axis, rng),
            )
        except GeomError as err:
            return None if err.code == "E_PRECONDITION" else (
                f"expected E_PRECONDITION, got {err.code}"
            )
        return "parallel axis was accepted"
    # case 3: projection ray parallel to the line pair
    for _ in range(_MAX_REJECTS):
        m = _scalar(rng, nonzero=True)
        eps = abs(_scalar(rng, nonzero=True))
        g = Line(-m, 1, -m * eps)  # arranges intercept + slope*spread == 0
        if contains(g, ORIGIN):
            continue
        sample = _strip_sample(rng, g)
        scene = pg.StripScene(g=g, p=_parallel_of(g, rng), epsilon=eps, sample=sample)
        break
    else:
        raise _exhausted("a parallel-ray strip scene")
    try:
        pg.nu(scene)
    except GeomError as err:
        return None if err.code == "E_PARALLEL_PROJECTION" else (
            f"expected E_PARALLEL_PROJECTION, got {err.code}; replay: {_replay('nu', scene)}"
        )
    return f"parallel projection ray was accepted; replay: {_replay('nu', scene)}"


# ------------------------------------------------------------------ engine

@dataclass
class PropertyReport:
    name: str
    trials: int
    failures: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0


_PROPERTIES: Sequence[Tuple[str, Callable[[random.Random, int], Optional[str]]]] = (
    ("kernel-intersection", _check_kernel_intersection),
    ("kernel-frame-round-trip", _check_frame_round_trip),
    ("ray-parameter-identity", _check_rho_identity),
    ("ray-parameter-identity-swapped", _check_rho_tilde_identity),
    ("closed-form-agreement", _check_closed_form_agreement),
    ("shifted-membership", _check_shifted_membership),
    ("trivial-intercept-cases", _check_trivial_intercepts),
    ("uniqueness-perturbation", _check_uniqueness),
    ("axis-main-contract", _check_axis_main_contract),
    ("axis-degenerate-cases", _check_axis_degenerate),
    ("axis-reduction-equivalence", _check_axis_reduction),
    ("axis-frame-choice", _check_axis_frame_choice),
    ("strip-sample-invariance", _check_strip_sample_invariance),
    ("strip-slope-invariance", _check_strip_slope_invariance),
    ("strip-closed-forms", _check_strip_closed_forms),
    ("strip-degenerate", _check_strip_degenerate),
    ("swap-invariance", _check_swap_invariance),
    ("axis-strip-invariance", _check_axis_strip_invariance),
    ("axis-strip-equivariance", _check_axis_strip_equivariance),
    ("axis-strip-reduction", _check_axis_strip_reduction),
    ("error-codes", _check_error_codes),
)

PROPERTY_NAMES = tuple(name for name, _ in _PROPERTIES)


def run_property(name: str, seed: int, trials: int) -> PropertyReport:
    """Run one named property for ``trials`` iterations."""
    table = dict(_PROPERTIES)
    if name not in table:
        raise ValueError(f"unknown property {name!r}")
    fn = table[name]
    rng = random.Random(f"{seed}:{name}")
    report = PropertyReport(name=name, trials=trials)
    for k in range(trials):
        try:
            failure = fn(rng, k)
        except Exception as err:  # a crash is a failing trial, not a crash of the suite
            failure = f"unexpected {type(err).__name__}: {err}"
        if failure is not None:
            report.failures += 1
            if len(report.examples) < 3:
                report.examples.append(failure)
    return report


def run_all(seed: int, trials: int, names: Optional[Sequence[str]] = None) -> List[PropertyReport]:
    return [
        run_property(name, seed, trials)
        for name in (names if names is not None else PROPERTY_NAMES)
    ]


def summarize(reports: Sequence[PropertyReport]) -> str:
    lines = []
    for r in reports:
        if r.ok:
            lines.append(f"PASS {r.name}: {r.trials}/{r.trials}")
        else:
            lines.append(f"FAIL {r.name}: {r.failures} of {r.trials} trials failed")
            for example in r.examples:
                lines.append(f"  counterexample: {example}")
    bad = sum(1 for r in reports if not r.ok)
    if bad:
        lines.append(f"{bad} of {len(reports)} properties FAILED")
    else:
        lines.append(f"all {len(reports)} properties passed")
    return "\n".join(lines)
