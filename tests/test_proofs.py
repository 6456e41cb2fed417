"""Symbolic proofs of identities the sweeps only sample.

Each identity is shown with sympy as an equality of rational functions, so
it holds wherever its denominators are nonzero, which the constructions'
preconditions guarantee.  The derivations restate the library's formulas,
so each proof also evaluates its derivation at rational points and compares
with the library.  The thousand-trial sweeps stay; these add to them.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from exactplane import (  # noqa: E402
    AxisStripScene,
    Line,
    Point,
    TransversalScene,
    nu_general,
    rho_pair,
)


def _exact(expr, values) -> Fraction:
    """``expr`` at rational ``values`` (ints or Fractions), as a Fraction."""
    value = sympy.Rational(expr.subs({
        sym: sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
        for sym, v in values.items()
    }))
    return Fraction(int(value.p), int(value.q))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


# ------------------------------------------------- the parallelogram intercept

# the pair is a*x + b*y = c, with c = a*qx + b*qy through the sample q for g
# and c = c_p for p; the center is O = (ox, oy), the offset k
a, b, qx, qy, c_p, ox, oy, dx, dy, k = sympy.symbols("a b qx qy c_p ox oy dx dy k")


def _axis_parameter(d):
    """nu_general, symbolically: tau such that the axis point is O + tau*d."""
    o = (ox, oy)

    def project(src):
        # where the ray from O through src meets p
        ray = (src[0] - o[0], src[1] - o[1])
        mu = (c_p - _dot((a, b), o)) / _dot((a, b), ray)
        return tuple(sympy.cancel(o[i] + mu * ray[i]) for i in range(2))

    s_bar = project((qx - k * d[0], qy - k * d[1]))
    t_bar = project((qx + k * d[0], qy + k * d[1]))
    neg_s_bar = (2 * o[0] - s_bar[0], 2 * o[1] - s_bar[1])
    link = (neg_s_bar[0] - t_bar[0], neg_s_bar[1] - t_bar[1])
    # O + tau*d lies on the line through t_bar with direction link
    offset_t = (t_bar[0] - o[0], t_bar[1] - o[1])
    return sympy.cancel(_cross(offset_t, link)) / sympy.cancel(_cross(d, link))


# p(O) / g(O): the ratio of the two implicit equations at the center
LAM = (a * ox + b * oy - c_p) / (a * ox + b * oy - (a * qx + b * qy))


class TestAxisPoint:
    """nu_general lands on O + lam*offset*d with lam = p(O) / g(O)."""

    @pytest.mark.parametrize(
        "direction", [(dx, dy), (-b, a)], ids=["general-axis", "axis-parallel-to-pair"]
    )
    def test_identity(self, direction):
        assert sympy.cancel(_axis_parameter(direction) - LAM * k) == 0

    @pytest.mark.parametrize(
        "g, p, axis, origin, sample",
        [
            (Line(-2, 1, 4), Line(-2, 1, 2), Line(1, -4, 4), Point(4, 0), Point(0, 4)),
            (Line(0, 1, 4), Line(0, 1, -2), Line(0, 1, 1), Point(3, 1), Point(7, 4)),
            (Line(-2, 1, 4), Line(-2, 1, 2), Line(-2, 1, 9), Point(0, 9), Point(1, 6)),
        ],
        ids=["slanted-axis", "horizontal-pair-parallel-axis", "sloped-pair-parallel-axis"],
    )
    def test_the_library_computes_the_same_point(self, g, p, axis, origin, sample):
        d = axis.direction()
        values = {
            a: g.a, b: g.b, qx: sample.x, qy: sample.y, c_p: p.c,
            ox: origin.x, oy: origin.y, dx: d.dx, dy: d.dy, k: 3,
        }
        tau = _exact(_axis_parameter((dx, dy)), values)
        assert tau == _exact(LAM, values) * 3
        got = nu_general(AxisStripScene(g, p, axis, origin, 3, sample)).nu_point
        assert got == Point(origin.x + tau * d.dx, origin.y + tau * d.dy)

    def test_standard_position_is_the_paper_formula(self):
        # x-axis through the origin, g: y = m*x + b_g, p: y = m*x + b_p
        m, b_g, b_p = sympy.symbols("m b_g b_p")
        lam = LAM.subs({a: -m, b: 1, qx: 0, qy: b_g, c_p: b_p, ox: 0, oy: 0})
        assert sympy.cancel(lam - b_p / b_g) == 0


# ------------------------------------------------ the ray-parameter identity

# g_s, g_t: y = m*x + b_s, y = m*x + b_t (or x = b_s, x = b_t for a vertical
# pair); the transversal l: y = kl*x + cl (or x = cl when vertical)
m, b_s, b_t, kl, cl = sympy.symbols("m b_s b_t kl cl")


def _rho(s, t, a_s, a_t, w):
    """rho_1 and rho_2 as double_projection._eliminate writes them."""
    rho_1 = (s[1] * t[0] - s[0] * t[1] + a_s * t[1]) / (w[0] * t[1] - w[1] * t[0])
    rho_2 = (s[1] * a_t) / (w[0] * s[1] - w[1] * s[0])
    return rho_1, rho_2


def _sloped_pair_sloped_transversal():
    def crossing(b_line):
        x = (cl - b_line) / (m - kl)
        return (x, kl * x + cl)

    return _rho(crossing(b_s), crossing(b_t), -b_s / m, -b_t / m, (1, kl))


def _sloped_pair_vertical_transversal():
    def crossing(b_line):
        return (cl, m * cl + b_line)

    return _rho(crossing(b_s), crossing(b_t), -b_s / m, -b_t / m, (0, 1))


def _vertical_pair():
    s, t = (b_s, kl * b_s + cl), (b_t, kl * b_t + cl)
    return _rho(s, t, b_s, b_t, (1, kl))


# derivation, and the library scene for given values of the symbols
CASES = {
    "sloped-pair-sloped-transversal": (
        _sloped_pair_sloped_transversal,
        lambda v: (Line(-v[m], 1, v[b_s]), Line(-v[m], 1, v[b_t]), Line(-v[kl], 1, v[cl])),
    ),
    "sloped-pair-vertical-transversal": (
        _sloped_pair_vertical_transversal,
        lambda v: (Line(-v[m], 1, v[b_s]), Line(-v[m], 1, v[b_t]), Line(1, 0, v[cl])),
    ),
    "vertical-pair": (
        _vertical_pair,
        lambda v: (Line(1, 0, v[b_s]), Line(1, 0, v[b_t]), Line(-v[kl], 1, v[cl])),
    ),
}


class TestRayParameter:
    """rho_1 == rho_2 for every orientation of the pair and the transversal.

    rho_tilde_pair is rho_pair on the coordinate-swapped scene, so the
    vertical pair here also covers the horizontal pair there."""

    @pytest.mark.parametrize("name", list(CASES))
    def test_identity(self, name):
        rho_1, rho_2 = CASES[name][0]()
        assert sympy.cancel(rho_1 - rho_2) == 0

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize(
        "values",
        [
            {m: 2, b_s: 4, b_t: 2, kl: 0, cl: 1},
            {m: Fraction(-1, 3), b_s: 5, b_t: Fraction(-7, 2), kl: 3, cl: Fraction(2, 5)},
        ],
        ids=["worked", "mixed"],
    )
    def test_the_library_computes_the_same_value(self, name, values):
        derive, scene = CASES[name]
        g_s, g_t, l = scene(values)
        rho_1, _ = rho_pair(TransversalScene(g_s=g_s, g_t=g_t, l=l))
        assert _exact(derive()[0], values) == rho_1
