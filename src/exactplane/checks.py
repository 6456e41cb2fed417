"""Seeded randomized verification of every construction-level guarantee.

Each property owns a deterministic RNG stream derived from ``(seed, name)``,
generates scenes by rejection sampling over small rationals, and re-checks a
guarantee exactly.  Identical seed and trial count give byte-identical
summaries: no wall-clock, no global state, no threads.

Three decisions are made in one place each:

- Sampling.  ``_draw(what, attempt)`` calls ``attempt`` until it returns
  something other than ``None`` (``None`` rejects the draw) and raises
  ``RuntimeError`` naming ``what`` after ``_MAX_REJECTS`` rejections, so a
  generator whose constraints admit almost nothing fails loudly instead of
  spinning.  A draw a property cannot use is redrawn, never counted as a
  passing trial.
- Failure text.  ``_fail(message, sub, *scenes)`` appends ``; replay:`` and
  one ``exactplane <sub> ...`` command per scene, joined by ``and``.  A
  counterexample is replayable where a subcommand exists for its scene;
  kernel counterexamples, and ``error-codes`` ones whose scene the library
  refused to build, have no replay.
- The horizontal and vertical shift cases (``phor``/``pver``).  ``_SHIFTS``
  holds one row per case, and each twin property runs its one body over it.

Library targets are looked up on their modules at call time: properties call
``dp.p_hor_closed_form`` rather than an imported name, and ``_SHIFTS`` holds
attribute *names*, not function objects.  A harness that replaces a module
attribute, such as a planted mutation or a tracing wrapper, is therefore seen
by every property.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

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
    frame_to_standard,
    intersect,
    is_parallel,
    line_from_points,
    line_through,
    midpoint,
    translate,
)
from .linsolve import solve_unique
from .textio import field_flag, format_line, format_point, format_scalar, format_value

_MAX_REJECTS = 10_000

T = TypeVar("T")


def _draw(what: str, attempt: Callable[[], Optional[T]]) -> T:
    """The first result of ``attempt`` that is not ``None``."""
    for _ in range(_MAX_REJECTS):
        value = attempt()
        if value is not None:
            return value
    raise RuntimeError(f"generator failed to produce {what}; widen its ranges")


# ---------------------------------------------------------------- generators

def _scalar(rng: random.Random, nonzero: bool = False) -> Fraction:
    def attempt():
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        return value if value != 0 or not nonzero else None
    return _draw("a scalar", attempt)


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
    def attempt():
        dx, dy = _scalar(rng), _scalar(rng)
        return Direction(dx, dy) if dx != 0 or dy != 0 else None
    return _draw("a direction", attempt)


def _transversal_direction(rng: random.Random, axis: Line) -> Direction:
    """A direction not parallel to ``axis``."""
    def attempt():
        d = _direction(rng)
        return None if is_parallel(line_through(ORIGIN, d), axis) else d
    return _draw("a transversal direction", attempt)


def _transversal_scene(
    rng: random.Random,
    g_orient: str = "any",
    l_orient: str = "any",
    coincident: bool = False,
) -> dp.TransversalScene:
    def attempt():
        g_s = _oriented_line(rng, g_orient)
        g_t = g_s if coincident else _parallel_of(g_s, rng)
        l = _oriented_line(rng, l_orient, avoid_origin=True)
        return None if is_parallel(l, g_s) else dp.TransversalScene(g_s=g_s, g_t=g_t, l=l)
    return _draw("a transversal scene", attempt)


def _line_through_point(
    rng: random.Random, q: Point, not_parallel_to: Line, avoid_origin: bool
) -> Line:
    def attempt():
        l = line_through(q, _direction(rng))
        if is_parallel(l, not_parallel_to) or (avoid_origin and contains(l, ORIGIN)):
            return None
        return l
    return _draw("a line through the given point", attempt)


def _on_any(q: Point, *lines: Line) -> bool:
    return any(contains(l, q) for l in lines)


def _axis_scene_main(rng: random.Random) -> ap.AxisScene:
    def attempt():
        base = _transversal_scene(rng)
        axis = _oriented_line(rng, "any")
        if is_parallel(axis, base.g_s) or axis == base.l:
            return None
        origin = _point_on(axis, rng)
        if _on_any(origin, base.l, base.g_s, base.g_t):
            return None
        if any(contains(axis, q) for q in base.crossings()):
            return None  # keep the dispatch in the main case
        return ap.AxisScene(
            g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis, origin=origin
        )
    return _draw("a main-case axis scene", attempt)


def _shifted_ray_parallel(g: Line, axis: Line, center: Point, offset: Fraction) -> bool:
    """True when the ray from ``center`` through a point of ``g`` moved by
    +-offset along ``axis`` is parallel to ``g``.  The moved copy of ``g``
    then runs through the center, so ``g`` runs through the center moved by
    -+offset; which point of ``g`` was moved does not matter."""
    d = axis.direction()
    return any(contains(g, translate(center, d, shift)) for shift in (offset, -offset))


def _strip_triple(rng: random.Random, orient: str = "any") -> Tuple[Line, Line, Fraction]:
    def attempt():
        g = _oriented_line(rng, orient, avoid_origin=True)
        p = _parallel_of(g, rng)
        eps = abs(_scalar(rng))
        return None if _shifted_ray_parallel(g, X_AXIS, ORIGIN, eps) else (g, p, eps)
    return _draw("a strip triple", attempt)


def _strip_sample(rng: random.Random, g: Line, for_swap: bool = False) -> Point:
    def attempt():
        q = _point_on(g, rng)
        return q if q.y != 0 and (not for_swap or q.x != 0) else None
    return _draw("a sample point", attempt)


def _axis_strip_scene(rng: random.Random) -> pga.AxisStripScene:
    def attempt():
        axis = _oriented_line(rng, "any")
        origin = _point_on(axis, rng)
        g = _oriented_line(rng, "any")
        if contains(g, origin):
            return None
        p = _parallel_of(g, rng)
        offset = _scalar(rng)
        sample = _point_on(g, rng)
        if contains(axis, sample) or _shifted_ray_parallel(g, axis, origin, offset):
            return None
        return pga.AxisStripScene(
            g=g, p=p, axis=axis, origin=origin, offset=offset, sample=sample
        )
    return _draw("an axis strip scene", attempt)


def _random_frame(rng: random.Random) -> Frame:
    def attempt():
        m00, m01 = _scalar(rng), _scalar(rng)
        m10, m11 = _scalar(rng), _scalar(rng)
        if m00 * m11 - m01 * m10 == 0:
            return None
        return Frame(((m00, m01), (m10, m11)), _point(rng))
    return _draw("an invertible frame", attempt)


# ------------------------------------------------------------ failure text

def _replay(sub: str, scene) -> str:
    """The CLI command that re-runs ``scene``: one flag per scene field,
    named by ``field_flag``."""
    words = ["exactplane", sub]
    for f in fields(scene):
        value = getattr(scene, f.name)
        flag = field_flag(f.name, isinstance(value, Line))
        text = shlex.quote(format_value(value))
        # argparse reads "-3/2" as an option, so a leading '-' needs "="
        words.append(f"{flag}={text}" if text.startswith("-") else f"{flag} {text}")
    return " ".join(words)


def _fail(message: str, sub: str, *scenes) -> str:
    """``message`` followed by the commands that re-run ``scenes``."""
    return f"{message}; replay: {' and '.join(_replay(sub, scene) for scene in scenes)}"


# ---------------------------------------------------- the two shift cases

class _Shift(NamedTuple):
    """One of the two cases of the distinguished point: shifts along the
    x-axis (``phor``) or along the y-axis (``pver``).  Library functions are
    held by name and looked up on ``dp`` when called."""

    sub: str  # the CLI subcommand
    label: str
    moved: str  # how the text names a shifted point
    construct: str
    closed_form: str
    rho_pair: str
    oracle_case: dp.ProjectionCase
    axis: Line  # the shifts run along it
    rho_orients: Tuple[str, str]  # pair orientations the identity alternates

    def run(self, scene: dp.TransversalScene) -> dp.ProjectionWitness:
        return getattr(dp, self.construct)(scene)

    def shifted(self, q: Point, amount: Fraction) -> Point:
        """``q`` moved back by ``amount`` along the axis."""
        return Point(q.x - amount, q.y) if self.axis is X_AXIS else Point(q.x, q.y - amount)


_SHIFTS = (
    _Shift(
        "phor", "horizontal", "left-shifted", "p_hor", "p_hor_closed_form", "rho_pair",
        dp.ProjectionCase.HORIZONTAL_A, X_AXIS, ("sloped", "vertical"),
    ),
    _Shift(
        "pver", "vertical", "down-shifted", "p_ver", "p_ver_closed_form", "rho_tilde_pair",
        dp.ProjectionCase.VERTICAL_B, Y_AXIS, ("sloped", "horizontal"),
    ),
)


def _shifts_of(scene: dp.TransversalScene) -> List[_Shift]:
    """The cases that exist for ``scene``: none shifts along the pair."""
    return [shift for shift in _SHIFTS if not is_parallel(scene.g_s, shift.axis)]


# ------------------------------------------------------------- the properties

def _check_kernel_intersection(rng: random.Random, k: int) -> Optional[str]:
    def attempt():
        l1 = _oriented_line(rng, "any")
        l2 = _oriented_line(rng, "any")
        return None if is_parallel(l1, l2) else (l1, l2)
    l1, l2 = _draw("a non-parallel pair", attempt)
    q = intersect(l1, l2)
    if not (contains(l1, q) and contains(l2, q)):
        return (
            f"intersection {format_point(q)} misses one of "
            f"{format_line(l1)}, {format_line(l2)}"
        )
    return None


def _check_frame_round_trip(rng: random.Random, k: int) -> Optional[str]:
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


def _rho_oracle(scene: dp.TransversalScene, shift: _Shift) -> Fraction:
    """Ray parameter from the full 4-equation, 3-unknown linear system: the
    point ``s + rho*w``, moved back by the shift of ``g_s`` (of ``g_t``),
    is ``alpha*t`` (``beta*s``).  A base line's shift is where it meets the
    shift axis."""
    s, t = scene.crossings()
    w = scene.l.direction()
    rows = [
        [w.dx, -t.x, 0],
        [w.dy, -t.y, 0],
        [w.dx, 0, -s.x],
        [w.dy, 0, -s.y],
    ]
    rhs = []
    for base in (scene.g_s, scene.g_t):
        q = intersect(base, shift.axis)
        rhs += [q.x - s.x, q.y - s.y]
    return solve_unique(rows, rhs)[0]


def _check_rho_identity(shift: _Shift, rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng, g_orient=shift.rho_orients[k % 2])
    first, second = getattr(dp, shift.rho_pair)(scene)
    if first != second:
        return _fail(f"ray-parameter pair differs: {first} vs {second}", shift.sub, scene)
    if first != _rho_oracle(scene, shift):
        return _fail("pair disagrees with the linear-system solve", shift.sub, scene)
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
    for shift in _shifts_of(scene):
        a = shift.run(scene).point
        b = getattr(dp, shift.closed_form)(scene)
        c = dp.oracle_point(scene, shift.oracle_case)
        if not (a == b == c):
            return _fail(
                f"{shift.label} case disagrees: formula {a}, closed form {b}, oracle {c}",
                shift.sub, scene,
            )
    return None


def _check_shifted_membership(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng)
    s, t = scene.crossings()
    z_s = line_from_points(ORIGIN, s)
    z_t = line_from_points(ORIGIN, t)
    for shift in _shifts_of(scene):
        w = shift.run(scene)
        shifted_s = shift.shifted(w.point, w.a_or_b_s)
        shifted_t = shift.shifted(w.point, w.a_or_b_t)
        if not contains(scene.l, w.point):
            return _fail("point off the transversal", shift.sub, scene)
        if shifted_s != Point(w.alpha * t.x, w.alpha * t.y) or not contains(z_t, shifted_s):
            return _fail(f"{shift.moved} point misses the T ray", shift.sub, scene)
        if shifted_t != Point(w.beta * s.x, w.beta * s.y) or not contains(z_s, shifted_t):
            return _fail(f"{shift.moved} point misses the S ray", shift.sub, scene)
    return None


def _check_trivial_intercepts(rng: random.Random, k: int) -> Optional[str]:
    # force one crossing onto a coordinate axis; the construction must
    # return that crossing itself
    case = k % 4
    # cases 0/1 pin S or T to the x-axis, cases 2/3 to the y-axis
    shift = _SHIFTS[case // 2]
    g = _oriented_line(rng, "sloped", avoid_origin=True)
    other = _parallel_of(g, rng)
    pinned = intersect(g, shift.axis)
    l = _line_through_point(rng, pinned, g, avoid_origin=True)
    g_s, g_t = (g, other) if case % 2 == 0 else (other, g)
    scene = dp.TransversalScene(g_s=g_s, g_t=g_t, l=l)
    result = shift.run(scene).point
    if result != pinned:
        return _fail(
            f"axis-pinned crossing {format_point(pinned)} not returned (got "
            f"{format_point(result)})", shift.sub, scene,
        )
    return None


def _check_uniqueness(rng: random.Random, k: int) -> Optional[str]:
    scene = _transversal_scene(rng)
    s, t = scene.crossings()
    z_s = line_from_points(ORIGIN, s)
    z_t = line_from_points(ORIGIN, t)
    w = scene.l.direction()
    for shift in _shifts_of(scene):
        witness = shift.run(scene)
        for _ in range(3):
            q = translate(witness.point, w, _scalar(rng, nonzero=True))
            ok_t = contains(z_t, shift.shifted(q, witness.a_or_b_s))
            ok_s = contains(z_s, shift.shifted(q, witness.a_or_b_t))
            if ok_t and ok_s:
                return _fail(
                    f"second point {format_point(q)} also satisfies both memberships",
                    shift.sub, scene,
                )
    return None


def _check_axis_main_contract(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_scene_main(rng)
    result = ap.construct_p(scene)
    if result.case_tag is not ap.AxisCase.MAIN:
        return _fail(f"expected the main case, got {result.case_tag.value}", "construct-p", scene)
    failed = [name for name, ok in ap.verify_p2(result).items() if not ok]
    if failed:
        return _fail(f"contract checks failed: {', '.join(failed)}", "construct-p", scene)
    if scene.g_s != scene.g_t and result.z_s == result.z_t:
        return _fail("distinct base lines produced equal rays", "construct-p", scene)
    return None


def _check_axis_degenerate(rng: random.Random, k: int) -> Optional[str]:
    want_s = k % 2 == 0

    def attempt():
        base = _transversal_scene(rng)
        s, t = base.crossings()
        pinned, other = (s, t) if want_s else (t, s)
        axis = _line_through_point(rng, pinned, base.g_s, avoid_origin=False)
        if axis == base.l:
            return None
        origin = _point_on(axis, rng)
        if _on_any(origin, base.l, base.g_s, base.g_t):
            return None
        if contains(axis, other):
            return None  # keep exactly one crossing pinned
        scene = ap.AxisScene(
            g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis, origin=origin
        )
        return scene, pinned

    scene, pinned = _draw("a degenerate axis scene", attempt)
    result = ap.construct_p(scene)
    expected = ap.AxisCase.S_COINCIDES if want_s else ap.AxisCase.T_COINCIDES
    if result.case_tag is not expected:
        return _fail(
            f"expected {expected.value}, got {result.case_tag.value}", "construct-p", scene
        )
    if result.p != pinned:
        return _fail("degenerate case did not return the pinned crossing", "construct-p", scene)
    companion = result.t_p if want_s else result.s_p
    if companion != scene.origin:
        return _fail("companion point is not the center", "construct-p", scene)
    failed = [name for name, ok in ap.verify_p2(result).items() if not ok]
    if failed:
        return _fail(f"contract checks failed: {', '.join(failed)}", "construct-p", scene)
    return None


def _check_axis_reduction(rng: random.Random, k: int) -> Optional[str]:
    shift = _SHIFTS[k % 2]

    def attempt():
        # sloped base lines keep both coordinate axes transversal to the pair
        scene = _transversal_scene(rng, g_orient="sloped")
        if contains(scene.g_s, ORIGIN) or contains(scene.g_t, ORIGIN):
            return None
        if any(contains(shift.axis, q) for q in scene.crossings()):
            return None  # stay in the main case so the comparison is non-trivial
        return scene

    scene = _draw("a reducible axis scene", attempt)
    full = ap.AxisScene(
        g_s=scene.g_s, g_t=scene.g_t, l=scene.l, axis=shift.axis, origin=ORIGIN
    )
    got = ap.construct_p(full).p
    # p_hor and p_ver are construct_p's own elimination on these axes, so
    # the closed form is the independent reference
    want = getattr(dp, shift.closed_form)(scene)
    if got != want:
        return _fail(
            f"axis construction gives {format_point(got)} but the closed form gives "
            f"{format_point(want)}", "construct-p", full,
        )
    return None


def _check_axis_frame_choice(rng: random.Random, k: int) -> Optional[str]:
    # whichever direction the frame sends to (0, 1), the point follows the
    # scene to standard position: the construction is incidence-defined
    scene = _axis_scene_main(rng)
    reference = ap.construct_p(scene).p
    for _ in range(2):
        d = _transversal_direction(rng, scene.axis)
        frame = frame_to_standard(scene.origin, scene.axis, d)
        image = ap.AxisScene(
            g_s=frame.apply_line(scene.g_s), g_t=frame.apply_line(scene.g_t),
            l=frame.apply_line(scene.l), axis=frame.apply_line(scene.axis),
            origin=frame.apply(scene.origin),
        )
        want, got = frame.apply(reference), ap.construct_p(image).p
        if got != want:
            return _fail(
                f"point does not follow the frame to standard position: want "
                f"{format_point(want)}, got {format_point(got)}", "construct-p", scene, image,
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
            return _fail(f"pipeline {value} vs closed form {closed}", "nu", scene)
        if expected is None:
            expected, first_scene = value, scene
        elif value != expected:
            return _fail(
                f"sample moved the intercept: {expected} vs {value}", "nu", scene, first_scene
            )
    return None


def _check_strip_slope_invariance(rng: random.Random, k: int) -> Optional[str]:
    b_g = _scalar(rng, nonzero=True)
    b_p = _scalar(rng)
    eps = abs(_scalar(rng))
    expected = b_p * eps / b_g

    def attempt():
        m = _scalar(rng, nonzero=True)
        g = Line(-m, 1, b_g)
        return None if _shifted_ray_parallel(g, X_AXIS, ORIGIN, eps) else (m, g)

    for _ in range(10):
        m, g = _draw("slopes for the invariance sweep", attempt)
        scene = pg.StripScene(
            g=g, p=Line(-m, 1, b_p), epsilon=eps, sample=_strip_sample(rng, g)
        )
        value = pg.nu(scene)
        if value != expected:
            return _fail(
                f"slope changed the intercept: got {value}, want {expected}", "nu", scene
            )
    return None


def _check_strip_closed_forms(rng: random.Random, k: int) -> Optional[str]:
    g, p, eps = _strip_triple(rng, orient=("sloped", "horizontal")[k % 2])
    scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=_strip_sample(rng, g))
    w = pg.build_witness(scene)
    s_bar, t_bar = pg.s_bar_t_bar_closed_form(scene)
    if (s_bar, t_bar) != (w.s_bar, w.t_bar):
        return _fail("projection closed form disagrees", "nu", scene)
    if pg.connecting_line(scene) != w.connecting_line:
        return _fail("connecting-line closed form disagrees", "nu", scene)
    if pg.minus_nu_check(scene) != -w.nu:
        return _fail("mirror intercept is not the negation", "nu", scene)
    if midpoint(w.s_bar, w.neg_s_bar) != ORIGIN or midpoint(w.t_bar, w.neg_t_bar) != ORIGIN:
        return _fail("corners are not centrally symmetric", "nu", scene)
    corners = {w.s_bar, w.t_bar, w.neg_s_bar, w.neg_t_bar}
    if len(corners) == 4:
        side = line_from_points(w.s_bar, w.t_bar)
        opposite = line_from_points(w.neg_s_bar, w.neg_t_bar)
        if not is_parallel(side, opposite):
            return _fail("opposite sides not parallel", "nu", scene)
    return None


def _check_strip_degenerate(rng: random.Random, k: int) -> Optional[str]:
    if k % 2 == 0:  # zero spread
        g, p, _ = _strip_triple(rng)
        scene = pg.StripScene(g=g, p=p, epsilon=0, sample=_strip_sample(rng, g))
        w = pg.build_witness(scene)
        if w.nu != 0 or w.s_bar != w.t_bar:
            return _fail("zero spread did not collapse", "nu", scene)
        if not contains(w.connecting_line, ORIGIN):
            return _fail("zero-spread line misses the origin", "nu", scene)
        return None

    # second line through the origin
    def attempt():
        g = _oriented_line(rng, "sloped", avoid_origin=True)
        eps = abs(_scalar(rng))
        return None if _shifted_ray_parallel(g, X_AXIS, ORIGIN, eps) else (g, eps)

    g, eps = _draw("a collapsing strip scene", attempt)
    p = Line(g.a, g.b, 0)
    scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=_strip_sample(rng, g))
    w = pg.build_witness(scene)
    if not (w.s_bar == w.t_bar == w.neg_s_bar == w.neg_t_bar == ORIGIN):
        return _fail("corners did not collapse onto the origin", "nu", scene)
    if w.nu != 0:
        return _fail("collapsed scene has nonzero intercept", "nu", scene)
    return None


def _check_swap_invariance(rng: random.Random, k: int) -> Optional[str]:
    def attempt():
        g, p, eps = _strip_triple(rng)
        # mu shifts the sample along the y-axis
        return None if _shifted_ray_parallel(g, Y_AXIS, ORIGIN, eps) else (g, p, eps)

    g, p, eps = _draw("a swappable strip triple", attempt)
    expected: Optional[Fraction] = None
    for _ in range(10):
        sample = _strip_sample(rng, g, for_swap=True)
        scene = pg.StripScene(g=g, p=p, epsilon=eps, sample=sample)
        value = pg.mu(scene)
        if value != pg.mu_closed_form(scene):
            return _fail("swap closed form disagrees", "mu", scene)
        if not g.is_horizontal:
            conjectured = p.x_intercept() * eps / g.x_intercept()
            if value != conjectured:
                return _fail(
                    f"swap value {value} differs from the x-intercept formula {conjectured}",
                    "mu", scene,
                )
        if expected is None:
            expected = value
        elif value != expected:
            return _fail("swap value moved with the sample", "mu", scene)
    return None


def _check_axis_strip_invariance(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_strip_scene(rng)
    reference = pga.nu_general(scene).nu_point

    def attempt():
        # whether a shifted ray is parallel to the pair does not depend on
        # the sample, and the scene has none; only the axis is left to avoid
        sample = _point_on(scene.g, rng)
        return None if contains(scene.axis, sample) else sample

    for _ in range(10):
        candidate = replace(scene, sample=_draw("a valid sample", attempt))
        value = pga.nu_general(candidate).nu_point
        if value != reference:
            return _fail(
                f"axis point moved with the sample: {format_point(reference)} vs "
                f"{format_point(value)}", "nu-general", candidate,
            )
    return None


def _check_axis_strip_equivariance(rng: random.Random, k: int) -> Optional[str]:
    scene = _axis_strip_scene(rng)
    frame = _random_frame(rng)
    moved = pga.transform_scene(scene, frame)
    want = frame.apply(pga.nu_general(scene).nu_point)
    got = pga.nu_general(moved).nu_point
    if got != want:
        return _fail(
            f"frame transport broke: want {format_point(want)}, got {format_point(got)}",
            "nu-general", scene,
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
        return _fail(
            f"general construction gives {format_point(nu_point)}, closed form {value}",
            "nu-general", general,
        )
    return None


def _rejected(code: str, what: str, build: Callable[[], object]) -> Optional[str]:
    """``None`` if ``build`` raises the ``GeomError`` with ``code``."""
    try:
        build()
    except GeomError as err:
        return None if err.code == code else f"expected {code}, got {err.code}"
    return f"{what} was accepted"


def _check_error_codes(rng: random.Random, k: int) -> Optional[str]:
    case = k % 4
    if case == 0:  # transversal through the origin
        g = _oriented_line(rng, "sloped", avoid_origin=True)
        # a transversal parallel to the pair would test the parallel case
        l = line_through(ORIGIN, _transversal_direction(rng, g))
        return _rejected(
            "E_ORIGIN_ON_L", "origin-on-transversal scene",
            lambda: dp.TransversalScene(g_s=g, g_t=_parallel_of(g, rng), l=l),
        )
    if case == 1:  # transversal parallel to the pair
        g = _oriented_line(rng, "any", avoid_origin=True)
        return _rejected(
            "E_PARALLEL", "parallel transversal",
            lambda: dp.TransversalScene(
                g_s=g, g_t=_parallel_of(g, rng), l=_parallel_of(g, rng, avoid_origin=True)
            ),
        )
    if case == 2:  # axis parallel to the pair
        base = _transversal_scene(rng)
        axis = _parallel_of(base.g_s, rng)
        return _rejected(
            "E_PRECONDITION", "parallel axis",
            lambda: ap.AxisScene(
                g_s=base.g_s, g_t=base.g_t, l=base.l, axis=axis,
                origin=_point_on(axis, rng),
            ),
        )
    # case 3: projection ray parallel to the line pair; g misses the origin,
    # as its intercept -m*eps is not zero
    m = _scalar(rng, nonzero=True)
    eps = abs(_scalar(rng, nonzero=True))
    g = Line(-m, 1, -m * eps)  # arranges intercept + slope*spread == 0
    sample = _strip_sample(rng, g)
    scene = pg.StripScene(g=g, p=_parallel_of(g, rng), epsilon=eps, sample=sample)
    failure = _rejected("E_PARALLEL_PROJECTION", "parallel projection ray", lambda: pg.nu(scene))
    return None if failure is None else _fail(failure, "nu", scene)


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
    ("ray-parameter-identity", partial(_check_rho_identity, _SHIFTS[0])),
    ("ray-parameter-identity-swapped", partial(_check_rho_identity, _SHIFTS[1])),
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
