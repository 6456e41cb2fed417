"""Tests for the randomized property suite itself.

The interesting part is the pair of mutation tests: they sabotage one of the
closed forms through its module attribute and confirm the suite actually
notices.  A checker that cannot catch a planted bug proves nothing.
"""

import dataclasses
import hashlib
import json
import random
import shlex
import types
from fractions import Fraction

import pytest

from exactplane.checks import (
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

    def test_perturbed_horizontal_closed_form_is_caught_by_the_axis_reduction(
        self, monkeypatch
    ):
        # p_hor and construct_p share one elimination, so the closed form is
        # the reduction property's only independent reference
        real = dp.p_hor_closed_form

        def skewed(scene):
            q = real(scene)
            return Point(q.x + 1, q.y)

        monkeypatch.setattr(dp, "p_hor_closed_form", skewed)
        report = run_property("axis-reduction-equivalence", seed=3, trials=24)
        assert report.failures == 12  # the horizontal half of the trials
        assert any("replay: exactplane construct-p" in ex for ex in report.examples)

    def test_perturbed_vertical_closed_form_is_caught(self, monkeypatch):
        # p_hor and p_ver are one elimination on two axes, so this closed form
        # and oracle_point are the only vertical code independent of it
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

    def test_collapsed_connecting_line_closed_form_is_caught(self, monkeypatch):
        # nu draws its collapsed line by its own rule, not the closed form, so
        # a closed form wrong only where p runs through the origin changes no
        # record and is caught by comparing the two
        real = pg.connecting_line
        collapsed = pg.StripScene(
            g=Line(-2, 1, 4), p=Line(-2, 1, 0), epsilon=4, sample=Point(0, 4)
        )
        record = pg.build_witness(collapsed)

        def skewed(scene):
            line = real(scene)
            return Line(line.a, line.b + 1, line.c) if scene.p.c == 0 else line

        monkeypatch.setattr(pg, "connecting_line", skewed)
        assert pg.connecting_line(collapsed) != record.connecting_line
        assert pg.build_witness(collapsed) == record
        report = run_property("strip-closed-forms", seed=2, trials=20)
        assert report.failures > 0
        assert all("connecting-line closed form disagrees" in ex for ex in report.examples)

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


# Each property's summary and RNG end state over seeds 0-2 x 20 trials, and 50
# replay commands from each shared generator, as sha256 prefixes.  A change
# that moves a draw stream changes its entry; an intended move is recorded in
# CHANGES.md along with the new entry.
PROPERTY_STREAMS = {
    "kernel-intersection": "6d6db9ab9045f36c",
    "kernel-frame-round-trip": "e9e5160015556a76",
    "ray-parameter-identity": "fa0981cce58d305b",
    "ray-parameter-identity-swapped": "84531f758c31120b",
    "closed-form-agreement": "8b8ef3c90e1e3bb6",
    "shifted-membership": "60826963f7686bc6",
    "trivial-intercept-cases": "daafa8cf49e90189",
    "uniqueness-perturbation": "7a9907fc539ca8be",
    "axis-main-contract": "b2be6e1e5f767ba8",
    "axis-degenerate-cases": "2f059ef86350048d",
    "axis-reduction-equivalence": "2db263d6f44b6cd0",
    "axis-frame-choice": "77016345de2ddad5",
    "strip-sample-invariance": "398a12bcd9507be1",
    "strip-slope-invariance": "8aa0a48da15441cb",
    "strip-closed-forms": "7939915b79cd16ee",
    "strip-degenerate": "666065d70ddd0a03",
    "swap-invariance": "84d676a544828ccc",
    "axis-strip-invariance": "9af35db14e89d33e",
    "axis-strip-equivariance": "35451106a70e0c2f",
    "axis-strip-reduction": "daf11b4430e2bb6a",
    "error-codes": "17cacb7e1dd72b3f",
}

GENERATOR_STREAMS = {
    "transversal": "8b423a9761fb78de",
    "axis-main": "5bcfb5d7ca8dbb0d",
    "strip": "9aab24e4eec3c68e",
    "axis-strip": "1d8fb1ddf5efb058",
}


def _strip_scene(rng):
    g, p, eps = checks._strip_triple(rng)
    return pg.StripScene(g=g, p=p, epsilon=eps, sample=checks._strip_sample(rng, g))


GENERATORS = {
    "transversal": ("phor", checks._transversal_scene),
    "axis-main": ("construct-p", checks._axis_scene_main),
    "strip": ("nu", _strip_scene),
    "axis-strip": ("nu-general", checks._axis_strip_scene),
}


class TestDrawStreams:
    def test_property_streams_are_pinned(self, monkeypatch):
        kept = []

        class Kept(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                kept.append(self)

        # run_property draws from one random.Random per run; keep it
        monkeypatch.setattr(checks, "random", types.SimpleNamespace(Random=Kept))
        got = {}
        for name in PROPERTY_NAMES:
            digest = hashlib.sha256()
            for seed in range(3):
                report = run_property(name, seed, 20)
                digest.update(f"{summarize([report])}\n{kept[-1].getstate()}\n".encode())
            got[name] = digest.hexdigest()[:16]
        assert got == PROPERTY_STREAMS

    def test_generator_streams_are_pinned(self):
        got = {}
        for name, (sub, generate) in GENERATORS.items():
            rng = random.Random(f"stream:{name}")
            text = "\n".join(checks._replay(sub, generate(rng)) for _ in range(50))
            got[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert got == GENERATOR_STREAMS

    def test_every_error_code_trial_checks_a_scene(self, monkeypatch):
        # a transversal through the origin drawn parallel to the pair is
        # redrawn, not counted as a pass; seeds 1-3 each drew one
        calls = []
        real = checks._rejected

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(checks, "_rejected", counted)
        for seed in (1, 2, 3):
            calls.clear()
            assert run_property("error-codes", seed, 200).ok
            assert len(calls) == 200
