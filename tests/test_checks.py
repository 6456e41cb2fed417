"""Tests for the randomized property suite itself.

The interesting part is the pair of mutation tests: they sabotage one of the
closed forms through its module attribute and confirm the suite actually
notices.  A checker that cannot catch a planted bug proves nothing.
"""

import dataclasses
import json
import random
import shlex
from fractions import Fraction

import pytest

from exactplane import (
    PROPERTY_NAMES,
    PropertyReport,
    run_all,
    run_property,
    summarize,
)
from exactplane import checks
from exactplane import double_projection as dp
from exactplane import parallelogram as pg
from exactplane.cli import main
from exactplane.kernel import Line, Point
from exactplane.parallelogram_axis import AxisStripScene
from exactplane.textio import format_scalar, format_value


class TestEngine:
    def test_every_property_passes_briefly(self):
        for report in run_all(seed=0, trials=4):
            assert report.ok, summarize([report])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="no-such-property"):
            run_property("no-such-property", seed=0, trials=1)

    def test_property_names_match_registry(self):
        assert len(PROPERTY_NAMES) == 21
        assert len(set(PROPERTY_NAMES)) == 21
        assert "closed-form-agreement" in PROPERTY_NAMES

    def test_same_seed_same_summary(self):
        names = ["kernel-intersection", "strip-closed-forms"]
        a = summarize(run_all(seed=9, trials=6, names=names))
        b = summarize(run_all(seed=9, trials=6, names=names))
        assert a == b

    def test_different_seeds_still_pass(self):
        for seed in (1, 2, 3):
            report = run_property("ray-parameter-identity", seed=seed, trials=5)
            assert report.ok

    def test_summary_formats(self):
        passing = PropertyReport(name="demo", trials=7)
        assert summarize([passing]) == "PASS demo: 7/7\nall 1 properties passed"
        failing = PropertyReport(
            name="demo", trials=7, failures=2, examples=["first", "second"]
        )
        text = summarize([failing])
        assert "FAIL demo: 2 of 7 trials failed" in text
        assert "  counterexample: first" in text
        assert "1 of 1 properties FAILED" in text


class TestMutationDetection:
    def test_perturbed_horizontal_closed_form_is_caught(self, monkeypatch):
        real = dp.p_hor_closed_form

        def skewed(scene):
            q = real(scene)
            return Point(q.x + 1, q.y)

        monkeypatch.setattr(dp, "p_hor_closed_form", skewed)
        report = run_property("closed-form-agreement", seed=3, trials=24)
        assert report.failures > 0
        assert any("replay: exactplane" in ex for ex in report.examples)

    def test_perturbed_vertical_closed_form_is_caught(self, monkeypatch):
        # p_ver is the swap of p_hor, so this closed form and oracle_point are
        # the only vertical code independent of the horizontal elimination
        real = dp.p_ver_closed_form

        def skewed(scene):
            q = real(scene)
            return Point(q.x, q.y + 1)

        monkeypatch.setattr(dp, "p_ver_closed_form", skewed)
        report = run_property("closed-form-agreement", seed=3, trials=24)
        assert report.failures > 0
        assert any("replay: exactplane pver" in ex for ex in report.examples)

    def test_perturbed_strip_closed_form_is_caught(self, monkeypatch):
        real = pg.nu_closed_form
        monkeypatch.setattr(pg, "nu_closed_form", lambda scene: real(scene) + 1)
        report = run_property("strip-sample-invariance", seed=3, trials=10)
        assert report.failures == 10
        assert any("closed form" in ex for ex in report.examples)

    def test_perturbed_strip_closed_form_is_caught_by_the_axis_reduction(self, monkeypatch):
        # nu and nu_general share one construction, so the closed form is
        # the reduction property's only independent reference
        real = pg.nu_closed_form
        monkeypatch.setattr(pg, "nu_closed_form", lambda scene: real(scene) + 1)
        report = run_property("axis-strip-reduction", seed=3, trials=10)
        assert report.failures == 10
        assert any("replay: exactplane nu-general" in ex for ex in report.examples)

    def test_crashing_property_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(
            pg, "nu_closed_form", lambda scene: 1 / 0
        )
        report = run_property("strip-sample-invariance", seed=3, trials=4)
        assert report.failures == 4
        assert any("ZeroDivisionError" in ex for ex in report.examples)

    def test_examples_capped_at_three(self, monkeypatch):
        monkeypatch.setattr(pg, "nu_closed_form", lambda scene: 10**9)
        report = run_property("strip-sample-invariance", seed=3, trials=9)
        assert report.failures == 9
        assert len(report.examples) == 3


def _canonical(value):
    """A scene value as a JSON document echoes it."""
    if isinstance(value, Point):
        return {"x": format_scalar(value.x), "y": format_scalar(value.y)}
    return format_value(value)


class TestReplay:
    """A replay command re-runs its scene: fed back through the CLI, it
    echoes the scene's canonical inputs."""

    @staticmethod
    def scenes():
        rng = random.Random(5)
        g, p, eps = checks._strip_triple(rng)
        sample = checks._strip_sample(rng, g, for_swap=True)
        strip = pg.StripScene(g=g, p=p, epsilon=eps, sample=sample)
        transversal = checks._transversal_scene(rng, g_orient="sloped")
        return [
            ("phor", transversal),
            ("pver", transversal),
            ("construct-p", checks._axis_scene_main(rng)),
            ("nu", strip),
            ("mu", strip),
            ("nu-general", checks._axis_strip_scene(rng)),
        ]

    def test_round_trip_through_the_cli(self, capsys):
        for sub, scene in self.scenes():
            argv = shlex.split(checks._replay(sub, scene))
            assert argv[:2] == ["exactplane", sub]
            assert main([*argv[1:], "--json"]) == 0
            inputs = json.loads(capsys.readouterr().out)["inputs"]
            want = {f.name: _canonical(getattr(scene, f.name)) for f in dataclasses.fields(scene)}
            assert inputs == want, sub

    def test_negative_offset_is_joined_with_equals(self, capsys):
        # argparse would read a separate "-3/2" as an option
        scene = AxisStripScene(
            g=Line(-2, 1, 4), p=Line(-2, 1, 2), axis=Line(1, -4, 4),
            origin=Point(4, 0), offset=Fraction(-3, 2), sample=Point(0, 4),
        )
        command = checks._replay("nu-general", scene)
        assert "--offset=-3/2 --sample '(0, 4)'" in command
        assert main([*shlex.split(command)[1:], "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["offset"] == "-3/2"
