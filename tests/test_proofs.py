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
    AxisCase,
    AxisScene,
    AxisStripScene,
    Direction,
    Line,
    Point,
    StripScene,
    TransversalScene,
    build_witness,
    connecting_line,
    construct_p,
    line_through,
    mu_witness,
    nu_closed_form,
    nu_general,
    rho_pair,
    s_bar_t_bar_closed_form,
    swap_line,
)
from exactplane.axis_projection import _ray_denominator  # noqa: E402


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


def _corners(d, line=(a, b), q=(qx, qy), cp=c_p, o=(ox, oy)):
    """s_bar, t_bar and -s_bar of nu_general, symbolically, for the pair
    line[0]*x + line[1]*y = const through q (g) and = cp (p), center o."""

    def project(src):
        # where the ray from O through src meets p
        ray = (src[0] - o[0], src[1] - o[1])
        mu = (cp - _dot(line, o)) / _dot(line, ray)
        return tuple(sympy.cancel(o[i] + mu * ray[i]) for i in range(2))

    s_bar = project((q[0] - k * d[0], q[1] - k * d[1]))
    t_bar = project((q[0] + k * d[0], q[1] + k * d[1]))
    return s_bar, t_bar, (2 * o[0] - s_bar[0], 2 * o[1] - s_bar[1])


def _axis_parameter(d, o=(ox, oy), **place):
    """nu_general, symbolically: tau such that the axis point is O + tau*d."""
    _, t_bar, neg_s_bar = _corners(d, o=o, **place)
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
        record = nu_general(AxisStripScene(g, p, axis, origin, 3, sample))
        assert record.nu_point == Point(origin.x + tau * d.dx, origin.y + tau * d.dy)
        assert record.nu == tau

    def test_standard_position_is_the_paper_formula(self):
        # x-axis through the origin, g: y = m*x + b_g, p: y = m*x + b_p
        m, b_g, b_p = sympy.symbols("m b_g b_p")
        lam = LAM.subs({a: -m, b: 1, qx: 0, qy: b_g, c_p: b_p, ox: 0, oy: 0})
        assert sympy.cancel(lam - b_p / b_g) == 0


# ------------------------------------------ the x-axis closed forms of nu

# nu is nu_general on the x-axis through the origin with offset k = epsilon.
# A sloped pair is y = m_g*x + b_g (g, through the sample (qx, m_g*qx + b_g))
# and y = m_g*x + b_p (p); a vertical pair is x = qx (g) and x = c_p (p).
m_g, b_g, b_p = sympy.symbols("m_g b_g b_p")
SLOPED = dict(line=(-m_g, 1), q=(qx, m_g * qx + b_g), cp=b_p, o=(0, 0))
VERTICAL = dict(line=(1, 0), q=(qx, qy), cp=c_p, o=(0, 0))


def _closed_corners():
    """s_bar and t_bar as s_bar_t_bar_closed_form writes them."""
    y = m_g * qx + b_g
    f_s, f_t = b_p / (b_g + m_g * k), b_p / (b_g - m_g * k)
    return (f_s * (qx - k), f_s * y), (f_t * (qx + k), f_t * y)


def _closed_connecting_line():
    """(A, B, C) of A*x + B*y = C as connecting_line writes it."""
    y = m_g * qx + b_g
    return y * b_g, -(qx * b_g + m_g * k ** 2), y * b_p * k


def _collapse_direction(line, q, d):
    """The collapse rule's direction S*g0(T) + T*g0(S) for the sources
    S, T = q -+ k*d and g0(X) = line[0]*X.x + line[1]*X.y."""
    s, t = (q[0] - k * d[0], q[1] - k * d[1]), (q[0] + k * d[0], q[1] + k * d[1])
    g_s, g_t = _dot(line, s), _dot(line, t)
    return tuple(sympy.expand(s[i] * g_t + t[i] * g_s) for i in range(2))


# the collapse rule's direction for nu, and for mu on the swapped pair
# x = m_g*y + b_g through the swapped sample, spread along the y-axis
NU_COLLAPSE = _collapse_direction((-m_g, 1), (qx, m_g * qx + b_g), (1, 0))
MU_COLLAPSE = _collapse_direction((1, -m_g), (m_g * qx + b_g, qx), (0, 1))


def _strip(values, vertical=False):
    """The library's StripScene for given values of the symbols."""
    if vertical:
        sample = Point(values[qx], values[qy])
        return StripScene(Line(1, 0, values[qx]), Line(1, 0, values[c_p]), values[k], sample)
    sample = Point(values[qx], values[m_g] * values[qx] + values[b_g])
    g, p = Line(-values[m_g], 1, values[b_g]), Line(-values[m_g], 1, values[b_p])
    return StripScene(g, p, values[k], sample)


SLOPED_VALUES = [
    {m_g: 2, b_g: 4, b_p: 2, qx: 0, k: 4},
    {m_g: Fraction(-1, 3), b_g: 5, b_p: Fraction(-7, 2), qx: Fraction(3, 2), k: Fraction(2, 5)},
]
VERTICAL_VALUES = [
    {qx: 2, qy: 5, c_p: 1, k: 3},
    {qx: Fraction(-5, 3), qy: Fraction(1, 2), c_p: Fraction(7, 4), k: Fraction(2, 3)},
]


class TestStripClosedForms:
    """The closed forms parallelogram keeps as oracles are the construction."""

    def test_corners_identity(self):
        for got, want in zip(_corners((1, 0), **SLOPED), _closed_corners()):
            assert [sympy.cancel(got[i] - want[i]) for i in range(2)] == [0, 0]

    def test_connecting_line_identity(self):
        # it carries t_bar and -s_bar; A = sample.y * b_g is nonzero, since
        # the sample is off the x-axis and g misses the origin
        A, B, C = _closed_connecting_line()
        _, t_bar, neg_s_bar = _corners((1, 0), **SLOPED)
        for corner in (t_bar, neg_s_bar):
            assert sympy.cancel(A * corner[0] + B * corner[1] - C) == 0

    def test_vertical_nu_identity(self):
        assert sympy.cancel(_axis_parameter((1, 0), **VERTICAL) - c_p * k / qx) == 0

    @pytest.mark.parametrize("values", SLOPED_VALUES, ids=["worked", "mixed"])
    def test_the_library_computes_the_same_sloped_forms(self, values):
        scene = _strip(values)
        record = build_witness(scene)
        construction = _corners((1, 0), **SLOPED)
        assert (record.s_bar, record.t_bar) == tuple(
            Point(_exact(x, values), _exact(y, values)) for x, y in construction[:2]
        )
        assert s_bar_t_bar_closed_form(scene) == tuple(
            Point(_exact(x, values), _exact(y, values)) for x, y in _closed_corners()
        )
        line = Line(*(_exact(c, values) for c in _closed_connecting_line()))
        assert connecting_line(scene) == record.connecting_line == line

    @pytest.mark.parametrize("values", VERTICAL_VALUES, ids=["worked", "mixed"])
    def test_the_library_computes_the_same_vertical_nu(self, values):
        scene = _strip(values, vertical=True)
        assert build_witness(scene).nu == _exact(_axis_parameter((1, 0), **VERTICAL), values)
        assert nu_closed_form(scene) == _exact(c_p * k / qx, values)

    def test_collapse_rule_is_the_collapsed_connecting_line(self):
        # at b_p = 0 the closed form is a line through the origin, and the
        # collapse rule's direction runs along it
        A, B, C = (sympy.expand(c.subs(b_p, 0)) for c in _closed_connecting_line())
        assert C == 0
        assert sympy.expand(A * NU_COLLAPSE[0] + B * NU_COLLAPSE[1]) == 0

    def test_swapped_collapse_rule_is_the_swapped_collapsed_line(self):
        # mu's line is the coordinate swap of nu's on the swapped scene
        A, B, _ = (sympy.expand(c.subs(b_p, 0)) for c in _closed_connecting_line())
        assert sympy.expand(B * MU_COLLAPSE[0] + A * MU_COLLAPSE[1]) == 0

    @pytest.mark.parametrize("values", SLOPED_VALUES, ids=["worked", "mixed"])
    def test_the_library_computes_the_same_collapsed_lines(self, values):
        values = {**values, b_p: 0}
        closed = Line(*(_exact(c, values) for c in _closed_connecting_line()))
        dx_nu, dy_nu = (_exact(c, values) for c in NU_COLLAPSE)
        scene = _strip(values)
        assert build_witness(scene).connecting_line == Line(dy_nu, -dx_nu, 0) == closed
        assert connecting_line(scene) == closed
        dx_mu, dy_mu = (_exact(c, values) for c in MU_COLLAPSE)
        g, p = Line(1, -values[m_g], values[b_g]), Line(1, -values[m_g], 0)
        sample = Point(values[m_g] * values[qx] + values[b_g], values[qx])
        swapped = StripScene(g, p, values[k], sample)
        assert mu_witness(swapped).connecting_line == Line(dy_mu, -dx_mu, 0) == swap_line(closed)


# ------------------------------------------------ the ray-parameter identity

# g_s, g_t: y = m*x + b_s, y = m*x + b_t (or x = b_s, x = b_t for a vertical
# pair); the transversal l: y = kl*x + cl (or x = cl when vertical)
m, b_s, b_t, kl, cl = sympy.symbols("m b_s b_t kl cl")


def _rho(s, t, a_s, a_t, w):
    """rho_1 and rho_2 of the one elimination (axis_projection._eliminate)
    on the x-axis through the origin, where the axis coordinates a_s, a_t
    are the x-intercepts."""
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
    """rho_1 == rho_2 on the x-axis for every orientation of the pair and the
    transversal.  TestGeneralElimination proves it on any axis, the y-axis
    of rho_tilde_pair included."""

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


# ---------------------------------- the transversal point on any axis

# S = (sx, sy) is where the transversal (direction w) meets g_s, and
# T = S + tau*w where it meets g_t; both base lines have the normal (a, b).
# The center O = (ox, oy) lies on the axis, whose direction is d.
sx, sy, wx, wy, tau = sympy.symbols("sx sy wx wy tau")
O, D, W = (ox, oy), (dx, dy), (wx, wy)
S = (sx, sy)
T = (sx + tau * wx, sy + tau * wy)
# the transversal's equation wy*(x - sx) - wx*(y - sy) = 0, at the center
L_AT_O = wy * (ox - sx) - wx * (oy - sy)


def _minus(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _along(p, u, scale):
    return (p[0] + scale * u[0], p[1] + scale * u[1])


def _axis_crossing(q):
    """O + sigma*d on the base line through q."""
    return _along(O, D, _dot((a, b), _minus(q, O)) / _dot((a, b), D))


S_AXIS, T_AXIS = _axis_crossing(S), _axis_crossing(T)
# the two eliminations as axis_projection._eliminate writes them
RHO_1 = -_cross(_minus(S, S_AXIS), _minus(T, O)) / _cross(W, _minus(T, O))
RHO_2 = -_cross(_minus(S, T_AXIS), _minus(S, O)) / _cross(W, _minus(S, O))
P = _along(S, W, RHO_1)


def _companion(q):
    """Where the ray from O through q meets the parallel to the axis
    through P: s_p for q = S, t_p for q = T."""
    ray = _minus(q, O)
    return _along(O, ray, _cross(_minus(P, O), D) / _cross(ray, D))


def _length_sq(u):
    return _dot(u, u)


class TestGeneralElimination:
    """The paper's first proposition on any axis and center: the two
    eliminations agree, each fixes the point uniquely, and their point meets
    verify_p2's distance claims."""

    def test_identity(self):
        assert sympy.cancel(RHO_1 - RHO_2) == 0

    @pytest.mark.parametrize(
        "point", [S, T, _along(S, W, sympy.Symbol("u"))], ids=["S", "T", "any-point-of-l"]
    )
    def test_ray_denominator_is_the_transversal_at_the_center(self, point):
        # w x (X - O) = l(O) for every X on l, so it vanishes exactly when the
        # center is on l, which AxisScene and TransversalScene reject
        assert sympy.expand(_cross(W, _minus(point, O)) - L_AT_O) == 0

    @pytest.mark.parametrize(
        "crossing, ray_point, rho", [(S_AXIS, T, RHO_1), (T_AXIS, S, RHO_2)],
        ids=["rho_1", "rho_2"],
    )
    def test_each_condition_fixes_rho(self, crossing, ray_point, rho):
        # P - crossing parallel to ray_point - O is linear in P's ray
        # parameter with the nonzero coefficient l(O): its one root is rho,
        # so P is unique (Proposition 1)
        r = sympy.Symbol("r")
        condition = _cross(_minus(_along(S, W, r), crossing), _minus(ray_point, O))
        assert sympy.diff(condition, r, 2) == 0
        assert sympy.expand(sympy.diff(condition, r) - L_AT_O) == 0
        assert sympy.cancel(condition.subs(r, rho)) == 0

    @pytest.mark.parametrize(
        "companion, crossing", [(S, T_AXIS), (T, S_AXIS)], ids=["distance_t", "distance_s"]
    )
    def test_distance(self, companion, crossing):
        # |P - t_p| = |s_axis - O| and |P - s_p| = |t_axis - O|; P minus its
        # companion first cancels to sigma*d, which keeps the squares small
        moved = [sympy.cancel(x) for x in _minus(P, _companion(companion))]
        assert sympy.cancel(_length_sq(moved) - _length_sq(_minus(crossing, O))) == 0

    @pytest.mark.parametrize(
        "values",
        [
            {a: -1, b: 1, sx: 1, sy: 3, wx: 1, wy: -1, tau: Fraction(3, 2),
             ox: 3, oy: 0, dx: 3, dy: 1},
            {a: Fraction(2, 3), b: 1, sx: -2, sy: Fraction(1, 2), wx: 3, wy: Fraction(-1, 4),
             tau: Fraction(-5, 3), ox: Fraction(1, 3), oy: -2, dx: 1, dy: Fraction(2, 5)},
            {a: 1, b: 0, sx: 2, sy: 5, wx: 1, wy: 3, tau: -4, ox: 0, oy: 0, dx: 1, dy: 0},
            {a: -1, b: 1, sx: 2, sy: 5, wx: 0, wy: 1, tau: -4, ox: 0, oy: 0, dx: 1, dy: 0},
        ],
        ids=["slanted", "mixed", "vertical-pair-x-axis", "vertical-transversal"],
    )
    def test_the_library_computes_the_same_point(self, values):
        v = {sym: Fraction(value) for sym, value in values.items()}
        s = Point(v[sx], v[sy])
        t = Point(v[sx] + v[tau] * v[wx], v[sy] + v[tau] * v[wy])
        scene = AxisScene(
            g_s=Line(v[a], v[b], v[a] * s.x + v[b] * s.y),
            g_t=Line(v[a], v[b], v[a] * t.x + v[b] * t.y),
            l=line_through(s, Direction(v[wx], v[wy])),
            axis=line_through(Point(v[ox], v[oy]), Direction(v[dx], v[dy])),
            origin=Point(v[ox], v[oy]),
        )
        assert _exact(RHO_1, values) == _exact(RHO_2, values)
        # the library's denominator, for the canonical w = W / (wx or wy),
        # is l(O) over l's canonical scale: -b, or a for a vertical l
        l, o = scene.l, scene.origin
        at_center = _exact(L_AT_O, values) / (v[wx] or v[wy])
        assert l.evaluate(o) / (-l.b if l.b else l.a) == at_center
        for q in (s, t):
            assert _ray_denominator(l.direction(), q.x - o.x, q.y - o.y) == at_center
        result = construct_p(scene)
        assert result.case_tag is AxisCase.MAIN
        for got, want in [
            (result.p, P), (result.s_axis, S_AXIS), (result.t_axis, T_AXIS),
            (result.s_p, _companion(S)), (result.t_p, _companion(T)),
        ]:
            assert got == Point(_exact(want[0], values), _exact(want[1], values))
