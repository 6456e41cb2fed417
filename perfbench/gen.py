"""Seeded scene generation for the benchmark, independent of the library.

Scenes are produced as input *text* (the grammar of ``exactplane.textio``),
so the program under test only ever sees generated strings.  Validity is
decided here with plain ``fractions.Fraction`` arithmetic over implicit line
triples ``a*x + b*y = c``; a draw that misses a documented precondition is
rejected and redrawn.  Degenerate scenes violate exactly one documented
precondition, and carry the error code the library must raise for it.

Two coefficient ranges are used: ``small`` matches the check suite's scalar
generator (|num| <= 12, den <= 6); ``wide`` draws numerators and denominators
of 256 bits, so kernel arithmetic is bigint multiply and gcd normalisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

KINDS = ("phor", "pver", "construct-p", "nu", "mu", "nu-general")

WIDE_BITS = 256
_MAX_TRIES = 10_000

Triple = Tuple[Fraction, Fraction, Fraction]
Pt = Tuple[Fraction, Fraction]


@dataclass
class Scene:
    """One generated scene: input texts, and what the library must do with them."""

    kind: str
    texts: Dict[str, str]
    # documented error code a degenerate scene must raise; None for valid scenes
    expect_code: Optional[str] = None
    # extra inputs used only by output validation (second nu-general sample)
    extra: Dict[str, str] = field(default_factory=dict)


class SceneGen:
    def __init__(self, rng: random.Random, wide: bool):
        self.rng = rng
        self.wide = wide

    # ------------------------------------------------------------ scalars

    def scalar(self, nonzero: bool = False) -> Fraction:
        rng = self.rng
        for _ in range(_MAX_TRIES):
            if self.wide:
                top = 1 << (WIDE_BITS - 1)
                num = rng.getrandbits(WIDE_BITS) | top
                if rng.random() < 0.5:
                    num = -num
                value = Fraction(num, rng.getrandbits(WIDE_BITS) | top)
            else:
                value = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            if value != 0 or not nonzero:
                return value
        raise RuntimeError("scalar generator exhausted")

    # -------------------------------------------------------------- lines

    def line(self, orient: str, avoid_origin: bool = False) -> Triple:
        """orient: sloped | horizontal | vertical | any (weighted 7:2:2)."""
        if orient == "any":
            orient = self.rng.choices(("sloped", "horizontal", "vertical"), (7, 2, 2))[0]
        c = self.scalar(nonzero=avoid_origin)
        if orient == "horizontal":
            return (Fraction(0), Fraction(1), c)
        if orient == "vertical":
            return (Fraction(1), Fraction(0), c)
        return (-self.scalar(nonzero=True), Fraction(1), c)

    def parallel_of(self, l: Triple, avoid_origin: bool = False) -> Triple:
        return (l[0], l[1], self.scalar(nonzero=avoid_origin))

    def point_on(self, l: Triple) -> Pt:
        a, b, c = l
        if b == 0:
            return (c / a, self.scalar())
        x = self.scalar()
        return (x, (c - a * x) / b)

    def point_off(self, l: Triple) -> Pt:
        for _ in range(_MAX_TRIES):
            q = (self.scalar(), self.scalar())
            if not on(l, q):
                return q
        raise RuntimeError("no point off the line")

    # --------------------------------------------------------------- text

    def line_text(self, l: Triple) -> str:
        """One of the grammar's forms, chosen at random where several apply."""
        a, b, c = l
        st = scalar_text
        if b == 0:
            return f"x={st(c / a)}"
        if a == 0:
            return f"y={st(c / b)}"
        m, off = -a / b, c / b
        if self.rng.random() < 0.5:
            sign = "-" if off < 0 else "+"
            coeff = "" if m == 1 else ("-" if m == -1 else st(m) + self.rng.choice(("*", "")))
            return f"y={coeff}x{sign}{st(abs(off))}"
        k = Fraction(self.rng.choice((1, 2, -3)))
        ka, kb, kc = a * k, b * k, c * k
        sign = "-" if kb < 0 else "+"
        return f"{st(ka)}x{sign}{st(abs(kb))}*y={st(kc)}"

    def point_text(self, q: Pt) -> str:
        return f"({scalar_text(q[0])}, {scalar_text(q[1])})"

    # ------------------------------------------------------------- scenes

    def scene(self, kind: str, degenerate: bool) -> Scene:
        for _ in range(_MAX_TRIES):
            made = getattr(self, "_" + kind.replace("-", "_"))(degenerate)
            if made is not None:
                return made
        raise RuntimeError(f"could not generate a {kind} scene")

    def _transversal(self, g_orient: str) -> Optional[Tuple[Triple, Triple, Triple]]:
        g_s = self.line(g_orient)
        g_t = g_s if self.rng.random() < 1 / 16 else self.parallel_of(g_s)
        l = self.line("any", avoid_origin=True)
        if parallel(l, g_s):
            return None
        return g_s, g_t, l

    def _projection(self, kind: str, degenerate: bool) -> Optional[Scene]:
        # phor needs non-horizontal base lines, pver non-vertical ones;
        # the excluded orientation is the documented E_CASE_UNAVAILABLE.
        excluded = "horizontal" if kind == "phor" else "vertical"
        allowed = ("sloped", "sloped", "sloped", "vertical" if kind == "phor" else "horizontal")
        orient = excluded if degenerate else self.rng.choice(allowed)
        drawn = self._transversal(orient)
        if drawn is None:
            return None
        g_s, g_t, l = drawn
        texts = {"g_s": self.line_text(g_s), "g_t": self.line_text(g_t), "l": self.line_text(l)}
        return Scene(kind, texts, "E_CASE_UNAVAILABLE" if degenerate else None)

    def _phor(self, degenerate: bool) -> Optional[Scene]:
        return self._projection("phor", degenerate)

    def _pver(self, degenerate: bool) -> Optional[Scene]:
        return self._projection("pver", degenerate)

    def _construct_p(self, degenerate: bool) -> Optional[Scene]:
        drawn = self._transversal("any")
        if drawn is None:
            return None
        g_s, g_t, l = drawn
        axis = self.line("any")
        if parallel(axis, g_s) or same_line(axis, l):
            return None
        origin = self.point_off(axis) if degenerate else self.point_on(axis)
        if on(l, origin) or on(g_s, origin) or on(g_t, origin):
            return None
        texts = {
            "g_s": self.line_text(g_s),
            "g_t": self.line_text(g_t),
            "l": self.line_text(l),
            "axis": self.line_text(axis),
            "origin": self.point_text(origin),
        }
        return Scene("construct-p", texts, "E_ORIGIN_OFF_AXIS" if degenerate else None)

    def _strip(self, degenerate: bool) -> Optional[Tuple[Triple, Triple, Fraction, Pt]]:
        """(g, p, epsilon, sample) of a nu scene; degenerate puts the sample on y=0."""
        g = self.line("sloped" if degenerate else "any", avoid_origin=True)
        p = self.parallel_of(g)
        eps = self.scalar(nonzero=True)
        if degenerate:
            return g, p, eps, (g[2] / g[0], Fraction(0))
        sample = self.point_on(g)
        if sample[1] == 0:
            return None
        for sx in (sample[0] - abs(eps), sample[0] + abs(eps)):
            # a source on the parallel to p through the origin projects along p
            if p[0] * sx + p[1] * sample[1] == 0:
                return None
        return g, p, eps, sample

    def _strip_scene(self, kind: str, g: Triple, p: Triple, eps: Fraction, sample: Pt,
                     code: Optional[str]) -> Scene:
        texts = {
            "g": self.line_text(g),
            "p": self.line_text(p),
            "epsilon": scalar_text(eps),
            "sample": self.point_text(sample),
        }
        return Scene(kind, texts, code)

    def _nu(self, degenerate: bool) -> Optional[Scene]:
        drawn = self._strip(degenerate)
        if drawn is None:
            return None
        return self._strip_scene("nu", *drawn, "E_PRECONDITION" if degenerate else None)

    def _mu(self, degenerate: bool) -> Optional[Scene]:
        # mu is nu of the coordinate-swapped scene: draw that, then swap back
        drawn = self._strip(False)
        if drawn is None:
            return None
        g, p, eps, sample = drawn
        g, p = (g[1], g[0], g[2]), (p[1], p[0], p[2])
        if degenerate:
            if g[1] == 0:
                return None
            sample = (Fraction(0), g[2] / g[1])
        else:
            sample = (sample[1], sample[0])
        return self._strip_scene("mu", g, p, eps, sample, "E_PRECONDITION" if degenerate else None)

    def _axis_strip_sample(self, g: Triple, p: Triple, axis: Triple, origin: Pt,
                           offset: Fraction) -> Optional[Pt]:
        sample = self.point_on(g)
        if on(axis, sample):
            return None
        d = canonical_direction(axis)
        for sign in (-1, 1):
            q = (sample[0] + sign * offset * d[0], sample[1] + sign * offset * d[1])
            ray = (q[0] - origin[0], q[1] - origin[1])
            if p[0] * ray[0] + p[1] * ray[1] == 0:
                return None
        return sample

    def _nu_general(self, degenerate: bool) -> Optional[Scene]:
        axis = self.line("any")
        origin = self.point_on(axis)
        g = self.line("any")
        if parallel(axis, g) or on(g, origin):
            return None
        p = self.parallel_of(g)
        offset = self.scalar(nonzero=True)
        extra: Dict[str, str] = {}
        if degenerate:
            sample = intersection(g, axis)
        else:
            sample = self._axis_strip_sample(g, p, axis, origin, offset)
            second = self._axis_strip_sample(g, p, axis, origin, offset)
            if sample is None or second is None or second == sample:
                return None
            extra["sample2"] = self.point_text(second)
        texts = {
            "g": self.line_text(g),
            "p": self.line_text(p),
            "axis": self.line_text(axis),
            "origin": self.point_text(origin),
            "offset": scalar_text(offset),
            "sample": self.point_text(sample),
        }
        return Scene("nu-general", texts, "E_PRECONDITION" if degenerate else None, extra)


# ------------------------------------------------------------------ helpers

def scalar_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parallel(l1: Triple, l2: Triple) -> bool:
    return l1[0] * l2[1] == l2[0] * l1[1]


def same_line(l1: Triple, l2: Triple) -> bool:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return parallel(l1, l2) and a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1


def on(l: Triple, q: Pt) -> bool:
    return l[0] * q[0] + l[1] * q[1] == l[2]


def intersection(l1: Triple, l2: Triple) -> Pt:
    det = l1[0] * l2[1] - l2[0] * l1[1]
    return (
        (l1[2] * l2[1] - l2[2] * l1[1]) / det,
        (l1[0] * l2[2] - l2[0] * l1[2]) / det,
    )


def canonical_direction(l: Triple) -> Pt:
    """Direction (-b, a) scaled so its first nonzero component is 1."""
    dx, dy = -l[1], l[0]
    factor = dx if dx != 0 else dy
    return (dx / factor, dy / factor)


def scene_pool(seed: int, wide: bool, per_kind: int, label: str) -> list:
    """A shuffled pool with a fixed composition for every seed.

    Each kind gets ``per_kind`` scenes; within a kind, every tenth scene is
    degenerate and every eighth valid one is marked for SVG rendering, so
    seeds change the coordinates and order but not the mix.
    """
    rng = random.Random(f"{label}:{seed}")
    gen = SceneGen(rng, wide)
    pool = []
    for kind in KINDS:
        for j in range(per_kind):
            degenerate = j % 10 == 7
            scene = gen.scene(kind, degenerate)
            pool.append((scene, not degenerate and j % 8 == 3))
    rng.shuffle(pool)
    return pool
