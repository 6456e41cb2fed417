"""Exact rational plane-geometry kernel.

All coordinates are :class:`fractions.Fraction`; every predicate is decided
exactly and every operation is a pure function over immutable values, so the
whole kernel is safe to share across threads.  There are no floating-point
fast paths: equality of points, lines and squared distances is literal
rational equality.

Lines are stored in the implicit form ``a*x + b*y = c`` and canonicalized so
the first nonzero coefficient of ``(a, b)`` equals 1.  Canonical triples make
line equality decidable and fix one orientation for :func:`side_of`.
Distances are always compared through :func:`dist_sq`; the constructions only
ever compare parallel segments, for which squared-distance equality is
equivalent to length equality and stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

from .errors import (
    CaseUnavailableError,
    CoincidentPointsError,
    DegenerateTransversalError,
    OriginOffAxisError,
    ParallelLinesError,
    ParallelProjectionError,
)

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def exact_str(value: Fraction) -> str:
    """``str(value)`` for a rational or int of any size: "n" or "p/q".

    ``str`` raises ValueError past the interpreter's int-string digit limit,
    which is process-global and so left alone; Decimal prints an integer of
    any size exactly.  Reprs and error messages use this too, so a huge
    value cannot turn a typed error into a ValueError.
    """
    try:
        return str(value)
    except ValueError:
        numerator = str(Decimal(value.numerator))
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{Decimal(value.denominator)}"


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", scalar(self.x))
        object.__setattr__(self, "y", scalar(self.y))

    def __repr__(self) -> str:
        return f"Point({exact_str(self.x)}, {exact_str(self.y)})"


@dataclass(frozen=True)
class Direction:
    """A nonzero displacement; not canonicalized on construction."""

    dx: Fraction
    dy: Fraction

    def __post_init__(self):
        object.__setattr__(self, "dx", scalar(self.dx))
        object.__setattr__(self, "dy", scalar(self.dy))
        if self.dx == 0 and self.dy == 0:
            raise ValueError("direction cannot be the zero vector")

    def __repr__(self) -> str:
        return f"Direction({exact_str(self.dx)}, {exact_str(self.dy)})"


ORIGIN = Point(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class Line:
    """The locus ``a*x + b*y = c``, canonicalized on construction."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        a, b, c = scalar(self.a), scalar(self.b), scalar(self.c)
        if a == 0 and b == 0:
            raise ValueError("line coefficients a and b cannot both be zero")
        factor = a if a != 0 else b
        object.__setattr__(self, "a", a / factor)
        object.__setattr__(self, "b", b / factor)
        object.__setattr__(self, "c", c / factor)

    @property
    def is_horizontal(self) -> bool:
        return self.a == 0

    @property
    def is_vertical(self) -> bool:
        return self.b == 0

    def slope(self) -> Fraction:
        if self.is_vertical:
            raise CaseUnavailableError("vertical line has no slope")
        return -self.a / self.b

    def x_intercept(self) -> Fraction:
        if self.is_horizontal:
            raise CaseUnavailableError("horizontal line does not meet the x-axis")
        return self.c / self.a

    def y_intercept(self) -> Fraction:
        if self.is_vertical:
            raise CaseUnavailableError("vertical line does not meet the y-axis")
        return self.c / self.b

    def direction(self) -> Direction:
        """Canonical direction vector of the line: first nonzero component 1."""
        return Direction(1, self.slope()) if self.b else Direction(0, 1)

    def evaluate(self, p: Point) -> Fraction:
        """Signed value ``a*x + b*y - c`` under the canonical orientation."""
        return self.a * p.x + self.b * p.y - self.c

    def __repr__(self) -> str:
        return f"Line({exact_str(self.a)}, {exact_str(self.b)}, {exact_str(self.c)})"


X_AXIS = Line(0, 1, 0)
Y_AXIS = Line(1, 0, 0)


def line_from_points(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    if p == q:
        raise CoincidentPointsError(f"cannot span a line on coincident points {p}")
    # (y_q - y_p) * x - (x_q - x_p) * y = x_p*y_q - x_q*y_p
    return Line(q.y - p.y, p.x - q.x, p.x * q.y - q.x * p.y)


def line_through(p: Point, d: Direction) -> Line:
    """The line through ``p`` with direction ``d``."""
    return Line(d.dy, -d.dx, d.dy * p.x - d.dx * p.y)


def parallel_through(l: Line, p: Point) -> Line:
    """The line parallel to ``l`` passing through ``p``."""
    return Line(l.a, l.b, l.a * p.x + l.b * p.y)


def is_parallel(l1: Line, l2: Line) -> bool:
    return l1.a * l2.b == l2.a * l1.b


def intersect(l1: Line, l2: Line) -> Point:
    """The exact intersection point of two non-parallel lines."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise ParallelLinesError(f"{l1} and {l2} are parallel")
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return Point(x, y)


def contains(l: Line, p: Point) -> bool:
    return l.evaluate(p) == 0


def side_of(l: Line, p: Point) -> int:
    """-1, 0, or +1: the half-plane of ``p`` under the canonical orientation."""
    value = l.evaluate(p)
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def project_through(center: Point, q: Point, target: Line) -> Point:
    """Central projection: where the line through ``center`` and ``q`` meets
    ``target``.  A point already on the target is its own image."""
    ray = line_from_points(center, q)
    if is_parallel(ray, target):
        raise ParallelProjectionError(
            "ray through a shifted source is parallel to the line pair"
        )
    return intersect(ray, target)


def swap_point(p: Point) -> Point:
    """Image of a point under swapping the two coordinates."""
    return Point(p.y, p.x)


def swap_line(l: Line) -> Line:
    """Image of a line under swapping the two coordinates."""
    return Line(l.b, l.a, l.c)


def reflect_through(p: Point, center: Point) -> Point:
    return Point(2 * center.x - p.x, 2 * center.y - p.y)


def dist_sq(p: Point, q: Point) -> Fraction:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def translate(p: Point, d: Direction, t: ScalarLike) -> Point:
    """``p + t*d``."""
    t = scalar(t)
    return Point(p.x + t * d.dx, p.y + t * d.dy)


@dataclass(frozen=True)
class Frame:
    """Invertible affine map ``p -> linear @ p + translation`` with rational entries.

    Affine frames preserve incidence, parallelism, and length ratios along
    parallel directions.  They serve :func:`frame_to_standard` and
    ``transform_scene``, which the frame and equivariance checks use.
    """

    linear: tuple
    translation: Point

    def __post_init__(self):
        (m00, m01), (m10, m11) = self.linear
        linear = (
            (scalar(m00), scalar(m01)),
            (scalar(m10), scalar(m11)),
        )
        object.__setattr__(self, "linear", linear)
        if self.determinant() == 0:
            raise ValueError("frame linear part must be invertible")

    def determinant(self) -> Fraction:
        (m00, m01), (m10, m11) = self.linear
        return m00 * m11 - m01 * m10

    def apply(self, p: Point) -> Point:
        (m00, m01), (m10, m11) = self.linear
        return Point(
            m00 * p.x + m01 * p.y + self.translation.x,
            m10 * p.x + m11 * p.y + self.translation.y,
        )

    def apply_direction(self, d: Direction) -> Direction:
        (m00, m01), (m10, m11) = self.linear
        return Direction(m00 * d.dx + m01 * d.dy, m10 * d.dx + m11 * d.dy)

    def apply_line(self, l: Line) -> Line:
        # Row covector (a, b) transforms by the inverse linear part, here its
        # adjugate: Line's scaling absorbs 1/det and its sign.
        (m00, m01), (m10, m11) = self.linear
        a = l.a * m11 - l.b * m10
        b = l.b * m00 - l.a * m01
        c = l.c * self.determinant() + a * self.translation.x + b * self.translation.y
        return Line(a, b, c)

    def inverse(self) -> "Frame":
        (m00, m01), (m10, m11) = self.linear
        det = self.determinant()
        n00, n01 = m11 / det, -m01 / det
        n10, n11 = -m10 / det, m00 / det
        tx = -(n00 * self.translation.x + n01 * self.translation.y)
        ty = -(n10 * self.translation.x + n11 * self.translation.y)
        return Frame(((n00, n01), (n10, n11)), Point(tx, ty))


def frame_to_standard(origin: Point, axis: Line, transversal: Direction) -> Frame:
    """The affine frame sending ``origin`` to (0,0), ``axis`` onto the x-axis,
    and the transversal direction to (0,1).

    Built as a shear/scale rather than a rotation so every coefficient stays
    rational; rotations to axis alignment would generally need square roots.
    """
    if not contains(axis, origin):
        raise OriginOffAxisError(f"{origin} does not lie on {axis}")
    d, t = axis.direction(), transversal
    if d.dx * t.dy == d.dy * t.dx:
        raise DegenerateTransversalError("transversal is parallel to the axis")
    # the inverse of the frame sending (1,0) to d, (0,1) to t and 0 to origin
    return Frame(((d.dx, t.dx), (d.dy, t.dy)), origin).inverse()
