"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS line (visible
with ``pytest -s``) and enforcing the stated runtime budget where one
exists.  Everything here is exact rational equality; there are no
tolerances to tune.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from exactplane import (
    ORIGIN,
    AxisScene,
    AxisStripScene,
    Line,
    OriginOnLineError,
    ParallelLinesError,
    ParallelProjectionError,
    Point,
    PreconditionError,
    StripScene,
    TransversalScene,
    build_witness,
    construct_p,
    minus_nu_check,
    nu,
    nu_general,
    p_hor,
    p_ver,
)
from exactplane.checks import run_property
from exactplane.figures import render_figure

PAIR = dict(g_s=Line(-2, 1, 4), g_t=Line(-2, 1, 2))


def _ok(label: str) -> None:
    print(f"PASS: {label}")


def test_criterion_1_worked_transversal_scene():
    start = time.perf_counter()
    scene = TransversalScene(l=Line(0, 1, 1), **PAIR)
    hor = p_hor(scene)
    ver = p_ver(scene)
    assert hor.s == Point(Fraction(-3, 2), 1)
    assert hor.t == Point(Fraction(-1, 2), 1)
    assert hor.a_or_b_s == -2
    assert hor.a_or_b_t == -1
    assert ver.a_or_b_s == 4
    assert ver.a_or_b_t == 2
    assert hor.point == Point(Fraction(-5, 2), 1)
    assert ver.point == Point(Fraction(3, 2), 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"worked transversal scene reproduced exactly in {elapsed:.4f}s")


def test_criterion_2_worked_strip_scene():
    start = time.perf_counter()
    scene = StripScene(g=Line(-2, 1, 4), p=Line(-2, 1, 2), epsilon=4, sample=Point(0, 4))
    w = build_witness(scene)
    assert w.s_bar == Point(Fraction(-2, 3), Fraction(2, 3))
    assert w.t_bar == Point(-2, -2)
    assert w.nu == 2
    assert minus_nu_check(scene) == -2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"worked strip scene reproduced exactly in {elapsed:.4f}s")


def test_criterion_3_ray_parameter_identity_1000_trials():
    start = time.perf_counter()
    for name in ("ray-parameter-identity", "ray-parameter-identity-swapped"):
        report = run_property(name, seed=1, trials=1000)
        assert report.ok, report.examples
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(f"ray parameter pairs equal on 2x1000 seeded trials in {elapsed:.2f}s")


def test_criterion_4_closed_forms_match_oracle_across_all_branches():
    report = run_property("closed-form-agreement", seed=2, trials=1000)
    assert report.ok, report.examples
    _ok("formula, closed form and oracle agree on 1000 stratified trials")


def test_criterion_5_axis_construction_contract():
    report = run_property("axis-main-contract", seed=3, trials=500)
    assert report.ok, report.examples
    degenerate = run_property("axis-degenerate-cases", seed=4, trials=100)
    assert degenerate.ok, degenerate.examples
    _ok("axis contract holds on 500 main trials and 2x50 degenerate trials")


def test_criterion_6_strip_invariances():
    samples = run_property("strip-sample-invariance", seed=5, trials=100)
    assert samples.ok, samples.examples
    slopes = run_property("strip-slope-invariance", seed=6, trials=20)
    assert slopes.ok, slopes.examples
    _ok("strip intercept is sample-invariant (100x10) and slope-invariant (20x10)")


def test_criterion_7_axis_strip_invariance_and_equivariance():
    samples = run_property("axis-strip-invariance", seed=7, trials=100)
    assert samples.ok, samples.examples
    frames = run_property("axis-strip-equivariance", seed=8, trials=100)
    assert frames.ok, frames.examples
    _ok("general intercept is sample-invariant (100x10) and frame-equivariant (100)")


class TestCriterion8Degeneracies:
    def test_zero_spread_gives_zero_intercept(self):
        scene = StripScene(g=Line(-2, 1, 4), p=Line(-2, 1, 2), epsilon=0, sample=Point(0, 4))
        assert nu(scene) == 0
        _ok("zero spread yields intercept 0")

    def test_target_through_origin_collapses_corners(self):
        scene = StripScene(g=Line(-2, 1, 4), p=Line(-2, 1, 0), epsilon=4, sample=Point(0, 4))
        w = build_witness(scene)
        assert (w.s_bar, w.t_bar, w.neg_s_bar, w.neg_t_bar) == (ORIGIN,) * 4
        assert w.nu == 0
        _ok("target line through the origin collapses all corners onto it")

    def test_four_trivial_placements(self):
        # crossing with the first base line sits on the x-axis
        scene = TransversalScene(l=Line(-1, 1, 2), **PAIR)
        assert p_hor(scene).point == Point(-2, 0) == p_hor(scene).s
        # crossing with the second base line sits on the x-axis
        scene = TransversalScene(l=Line(-1, 1, 1), **PAIR)
        assert p_hor(scene).point == Point(-1, 0) == p_hor(scene).t
        # crossing with the first base line sits on the y-axis
        scene = TransversalScene(l=Line(-1, 1, 4), **PAIR)
        assert p_ver(scene).point == Point(0, 4) == p_ver(scene).s
        # crossing with the second base line sits on the y-axis
        scene = TransversalScene(l=Line(-1, 1, 2), **PAIR)
        assert p_ver(scene).point == Point(0, 2) == p_ver(scene).t
        _ok("all four trivial crossing placements return the crossing itself")

    def test_designated_error_codes(self):
        with pytest.raises(OriginOnLineError) as err:
            TransversalScene(l=Line(-3, 1, 0), **PAIR)
        assert err.value.code == "E_ORIGIN_ON_L"
        with pytest.raises(ParallelLinesError) as err:
            TransversalScene(l=Line(-2, 1, 9), **PAIR)
        assert err.value.code == "E_PARALLEL"
        with pytest.raises(PreconditionError) as err:
            AxisScene(l=Line(0, 1, 1), axis=Line(-2, 1, -8), origin=Point(4, 0), **PAIR)
        assert err.value.code == "E_PRECONDITION"
        with pytest.raises(ParallelProjectionError) as err:
            build_witness(
                StripScene(g=Line(-1, 1, -2), p=Line(-1, 1, -4), epsilon=2, sample=Point(3, 1))
            )
        assert err.value.code == "E_PARALLEL_PROJECTION"
        _ok("every guarded degeneracy raises its designated error code")

    def test_randomized_degenerate_sweeps(self):
        trivial = run_property("trivial-intercept-cases", seed=9, trials=100)
        assert trivial.ok, trivial.examples
        errors = run_property("error-codes", seed=10, trials=100)
        assert errors.ok, errors.examples
        _ok("randomized trivial-case and error-code sweeps pass 100 trials each")


class TestCriterion9Cli:
    def _figure(self, name: str) -> str:
        r = subprocess.run(
            [sys.executable, "-m", "exactplane.cli", "figure", name],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert r.returncode == 0
        return r.stdout

    def test_builtin_figures_are_byte_deterministic_with_markers(self):
        pic1 = self._figure("pic1")
        assert pic1 == self._figure("pic1") == render_figure("pic1")
        for x, y in (("-3/2", "1"), ("-1/2", "1"), ("-5/2", "1"), ("3/2", "1")):
            assert f'data-x="{x}" data-y="{y}"' in pic1
        pic3 = self._figure("pic3")
        assert pic3 == self._figure("pic3") == render_figure("pic3")
        for x, y in (("-2/3", "2/3"), ("-2", "-2"), ("2", "0")):
            assert f'data-x="{x}" data-y="{y}"' in pic3
        _ok("built-in figures render byte-identically with the worked-scene markers")

    def test_check_suite_1000_trials_exits_0(self):
        r = subprocess.run(
            [sys.executable, "-m", "exactplane.cli", "check", "--seed", "1", "--trials", "1000"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert r.returncode == 0, r.stdout + r.stderr
        assert "all 21 properties passed" in r.stdout
        _ok("check --seed 1 --trials 1000 exits 0 with every property passing")


def test_supporting_constructions_stay_consistent():
    """Cross-module smoke: the axis construction reduces to the plain one."""
    scene = AxisScene(l=Line(0, 1, 1), axis=Line(0, 1, 0), origin=ORIGIN, **PAIR)
    assert construct_p(scene).p == Point(Fraction(-5, 2), 1)
    general = AxisStripScene(
        g=Line(-2, 1, 4),
        p=Line(-2, 1, 2),
        axis=Line(0, 1, 0),
        origin=ORIGIN,
        offset=4,
        sample=Point(0, 4),
    )
    assert nu_general(general).nu_point == Point(2, 0)
    _ok("axis-relative constructions reduce to the coordinate-axis values")
