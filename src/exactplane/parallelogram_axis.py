"""The parallelogram intercept relative to an arbitrary axis and center.

Generalizes :mod:`.parallelogram`, whose ``nu`` and ``mu`` are this
construction on the x- and y-axis centered at the origin: the reference axis
is any line, the center any point on it, and the sample spread is measured
along the axis direction instead of horizontally.  The sample sits on ``g``;
moving it by ``-offset`` and ``+offset`` times the canonical axis direction
gives the sources S and T, which are projected through the center onto ``p``
and then reflected through the center.  The line through t_bar and the
reflected s_bar meets the axis in a point that does not depend on the
sample: ``O + lam * offset * d`` for center O, axis direction d and
``lam = p(O) / g(O)``, the ratio of the lines' equations at the center.

``nu``, ``mu`` and this construction return one record,
:class:`AxisParallelogram`, whose ``nu`` is ``lam * offset``: on the x- or
y-axis through the origin, that is the intercept itself.

Offsets are rational multiples of the canonical direction vector (first
nonzero component 1), not Euclidean lengths; a Euclidean unit along a slanted
axis is irrational in general.  For a fixed scene the two scales differ by
the constant length of that direction vector, so sample independence is the
same statement either way.  The offset sign is not normalized: negating it
swaps S with T, which reflects the result through the center; the test
suite pins that behaviour down.

The axis may be parallel to the pair: S and T then lie on ``g``, so no ray
from the center (off ``g``) is parallel to ``p``.  For any axis, the
connecting line is parallel to it only if the sample is on it, which the
scene rejects.  The computation runs in the given frame, not through the
formula; :mod:`.parallelogram` keeps the x-axis closed form as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import (
    GeomError,
    InconsistentError,
    OriginOffAxisError,
    PreconditionError,
)
from .kernel import (
    Frame,
    Line,
    Point,
    contains,
    exact_str,
    intersect,
    is_parallel,
    line_from_points,
    project_through,
    reflect_through,
    scalar,
    translate,
)


@dataclass(frozen=True)
class AxisStripScene:
    g: Line
    p: Line
    axis: Line
    origin: Point
    offset: Fraction
    sample: Point

    def __post_init__(self):
        object.__setattr__(self, "offset", scalar(self.offset))
        if not is_parallel(self.g, self.p):
            raise PreconditionError("the two lines must be parallel")
        if not contains(self.axis, self.origin):
            raise OriginOffAxisError("center does not lie on the axis")
        if contains(self.g, self.origin):
            raise PreconditionError("center lies on the source line")
        if not contains(self.g, self.sample):
            raise PreconditionError("sample point does not lie on the source line")
        if contains(self.axis, self.sample):
            # the sources would sit on the axis itself and one ray could
            # degenerate to a point at the center
            raise PreconditionError("sample point lies on the axis")


@dataclass(frozen=True)
class AxisParallelogram:
    """The construction record; ``nu_point = center + nu * d`` for the
    canonical axis direction d."""

    s_bar: Point
    t_bar: Point
    neg_s_bar: Point
    neg_t_bar: Point
    nu_point: Point
    nu: Fraction
    # context carried for verification and rendering; scene is the one the
    # record was built from, a StripScene for nu and mu
    scene: object
    s: Point
    t: Point
    connecting_line: Optional[Line]


def nu_general(scene: AxisStripScene) -> AxisParallelogram:
    """Run the construction and return all four corners plus the axis point."""
    return _nu_general_core(scene, scene.axis, scene.origin, scene.offset)


def _nu_general_core(scene, axis: Line, origin: Point, offset: Fraction) -> AxisParallelogram:
    """The ``nu_general`` record of ``scene``'s ``p`` and ``sample`` (an
    ``AxisStripScene`` or a ``StripScene``), for inputs that already meet
    every ``AxisStripScene`` precondition."""
    # neither source is the center: both lie on the parallel to the axis
    # through the sample, which the scene keeps off the axis
    d = axis.direction()
    s, t = translate(scene.sample, d, -offset), translate(scene.sample, d, offset)
    s_bar = project_through(origin, s, scene.p)
    t_bar = project_through(origin, t, scene.p)
    neg_s_bar = reflect_through(s_bar, origin)
    neg_t_bar = reflect_through(t_bar, origin)
    if t_bar == neg_s_bar:
        # every corner collapsed onto the center (p runs through it)
        connecting, nu_point = None, origin
    else:
        connecting = line_from_points(t_bar, neg_s_bar)
        if is_parallel(connecting, axis):
            raise InconsistentError(
                "connecting line is parallel to the axis, which valid input cannot produce"
            )
        nu_point = intersect(connecting, axis)
    return AxisParallelogram(
        s_bar=s_bar, t_bar=t_bar, neg_s_bar=neg_s_bar, neg_t_bar=neg_t_bar, nu_point=nu_point,
        # the first nonzero component of d is 1
        nu=nu_point.x - origin.x if d.dx != 0 else nu_point.y - origin.y,
        scene=scene, s=s, t=t, connecting_line=connecting,
    )


def nu_general_invariance(
    g: Line,
    p: Line,
    axis: Line,
    origin: Point,
    offset: Fraction,
    samples: Sequence[Point],
) -> bool:
    """True iff every sample yields the identical axis point.

    Per-sample failures are re-raised with the offending sample named, so a
    caller sweeping many samples can tell which one broke."""
    points: List[Point] = []
    for sample in samples:
        try:
            result = nu_general(AxisStripScene(g, p, axis, origin, offset, sample))
        except GeomError as err:
            where = f"sample ({exact_str(sample.x)}, {exact_str(sample.y)})"
            raise type(err)(f"{where}: {err.message}") from err
        points.append(result.nu_point)
    return all(point == points[0] for point in points)


def transported_offset(frame: Frame, axis: Line, offset: Fraction) -> Fraction:
    """The offset to use after mapping a scene through ``frame``.

    Canonical direction vectors are not preserved by affine maps, only their
    span is; the offset must be rescaled by the factor between the mapped
    direction and the canonical direction of the mapped axis.
    """
    image_of_d = frame.apply_direction(axis.direction())
    d2 = frame.apply_line(axis).direction()
    factor = image_of_d.dx / d2.dx if d2.dx != 0 else image_of_d.dy / d2.dy
    return scalar(offset) * factor


def transform_scene(scene: AxisStripScene, frame: Frame) -> AxisStripScene:
    """The same construction data seen through an invertible affine map."""
    return AxisStripScene(
        g=frame.apply_line(scene.g),
        p=frame.apply_line(scene.p),
        axis=frame.apply_line(scene.axis),
        origin=frame.apply(scene.origin),
        offset=transported_offset(frame, scene.axis, scene.offset),
        sample=frame.apply(scene.sample),
    )
