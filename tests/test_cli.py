import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactplane import figures
from exactplane.figures import Viewport, render_figure
from exactplane.cli import main

BASE = [sys.executable, "-m", "exactplane.cli"]

PIC1 = [
    "--line-g-s", "y=2x+4",
    "--line-g-t", "y=2x+2",
    "--line-l", "y=1",
]


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120
    )


class TestProjectionCommands:
    def test_phor_human_output(self):
        r = run_cli("phor", *PIC1)
        assert r.returncode == 0
        assert "p: (-5/2, 1)" in r.stdout
        assert "rho: -1" in r.stdout

    def test_pver_human_output(self):
        r = run_cli("pver", *PIC1)
        assert r.returncode == 0
        assert "p: (3/2, 1)" in r.stdout

    def test_phor_json_document(self):
        r = run_cli("phor", *PIC1, "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["construction"] == "phor"
        assert doc["outputs"]["p"] == {"x": "-5/2", "y": "1"}
        assert doc["case"] == "HORIZONTAL_A"
        assert doc["witnesses"]["rho"] == "-1"
        assert doc["inputs"]["g_s"] == "y=2*x+4"  # canonical echo
        assert "error" not in doc

    def test_json_is_deterministic(self):
        a = run_cli("phor", *PIC1, "--json").stdout
        b = run_cli("phor", *PIC1, "--json").stdout
        assert a == b

    def test_svg_out(self, tmp_path):
        out = tmp_path / "scene.svg"
        r = run_cli("phor", *PIC1, "--svg-out", str(out))
        assert r.returncode == 0
        svg = out.read_text()
        assert 'data-x="-5/2" data-y="1"' in svg


class TestExitCodes:
    def test_parse_error_is_2(self):
        r = run_cli("phor", "--line-g-s", "nonsense", "--line-g-t", "y=1", "--line-l", "y=2")
        assert r.returncode == 2
        assert "E_PARSE" in r.stderr

    def test_parse_error_json_document(self):
        r = run_cli(
            "phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2",
            "--line-l", "y=(1", "--json",
        )
        assert r.returncode == 2
        doc = json.loads(r.stdout)
        assert doc["error"]["code"] == "E_PARSE"
        assert doc["inputs"]["l"] == "y=(1"  # raw echo on failure
        assert "outputs" not in doc

    def test_precondition_error_is_3(self):
        r = run_cli("phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=2x+9")
        assert r.returncode == 3
        assert "E_PARALLEL" in r.stderr

    def test_origin_on_transversal_is_3_with_specific_code(self):
        r = run_cli(
            "phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2",
            "--line-l", "y=3x", "--json",
        )
        assert r.returncode == 3
        assert json.loads(r.stdout)["error"]["code"] == "E_ORIGIN_ON_L"

    def test_unknown_property_is_2(self):
        r = run_cli("check", "--only", "no-such-property")
        assert r.returncode == 2
        assert "no-such-property" in r.stderr

    def test_failing_check_suite_is_1(self):
        # sabotage one closed form in-process, then drive the real main()
        script = (
            "import sys\n"
            "from exactplane import double_projection as dp\n"
            "from exactplane.kernel import Point\n"
            "real = dp.p_hor_closed_form\n"
            "dp.p_hor_closed_form = lambda scene: (lambda q: Point(q.x + 1, q.y))(real(scene))\n"
            "from exactplane.cli import main\n"
            "sys.exit(main(['check', '--seed', '1', '--trials', '25',"
            " '--only', 'closed-form-agreement']))\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert r.returncode == 1
        assert "FAIL closed-form-agreement" in r.stdout
        assert "replay: exactplane" in r.stdout


class TestConstructionCommands:
    def test_construct_p(self):
        r = run_cli(
            "construct-p",
            "--line-g-s", "y=x+2", "--line-g-t", "y=x-1",
            "--line-l", "1x+1y=4", "--line-axis", "1x-3y=3",
            "--origin", "(3, 0)", "--json",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["p"] == {"x": "-10", "y": "14"}
        assert doc["case"] == "MAIN"
        assert all(doc["witnesses"]["checks"].values())

    def test_nu(self):
        r = run_cli(
            "nu", "--line-g", "y=2x+4", "--line-p", "y=2x+2",
            "--epsilon", "4", "--sample", "(0, 4)",
        )
        assert r.returncode == 0
        assert "nu: 2" in r.stdout

    def test_mu(self):
        r = run_cli(
            "mu", "--line-g", "1x-2y=4", "--line-p", "1x-2y=2",
            "--epsilon", "4", "--sample", "(4, 0)", "--json",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["outputs"]["mu"] == "2"

    def test_nu_general(self):
        r = run_cli(
            "nu-general", "--line-g", "y=2x+4", "--line-p", "y=2x+2",
            "--line-axis", "1x-4y=4", "--origin", "(4, 0)",
            "--offset", "3", "--sample", "(0, 4)", "--json",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["nu_point"] == {"x": "13/2", "y": "5/8"}

    def test_sample_off_line_is_3(self):
        r = run_cli(
            "nu", "--line-g", "y=2x+4", "--line-p", "y=2x+2",
            "--epsilon", "4", "--sample", "(0, 5)",
        )
        assert r.returncode == 3


class TestFigureCommand:
    def test_stdout_matches_library(self):
        r = run_cli("figure", "pic1")
        assert r.returncode == 0
        assert r.stdout == render_figure("pic1")

    def test_deterministic(self):
        assert run_cli("figure", "pic3").stdout == run_cli("figure", "pic3").stdout

    @pytest.mark.parametrize("name", ["pic1", "pic2", "pic3", "pic4"])
    def test_non_utf8_stdout_takes_the_utf8_svg(self, name):
        # the bytes the SVG's encoding declaration promises, as --svg-out writes
        env = {**os.environ, "PYTHONIOENCODING": "ascii"}
        r = subprocess.run(BASE + ["figure", name], capture_output=True, env=env, timeout=120)
        assert (r.returncode, b"Traceback" in r.stderr) == (0, False)
        assert r.stdout == render_figure(name).encode("utf-8")

    def test_in_process_stringio_stdout_takes_the_text(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["figure", "pic3"]) == 0
        assert buf.getvalue() == render_figure("pic3")

    def test_svg_out(self, tmp_path):
        out = tmp_path / "fig.svg"
        r = run_cli("figure", "pic2", "--svg-out", str(out))
        assert r.returncode == 0
        assert out.read_text() == render_figure("pic2")

    def test_viewport_flags(self):
        default = run_cli("figure", "pic1").stdout
        wide = run_cli("figure", "pic1", "--xmin", "-20", "--xmax", "20").stdout
        assert wide != default

    def test_viewport_flag_lays_over_the_figure_viewport(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["figure", "pic4", "--width", "300"]) == 0
        assert buf.getvalue() == render_figure("pic4", Viewport(-8, 8, -8, 8, width=300))

    def test_bad_viewport_flag_fails_before_the_construction(self, monkeypatch, capsys):
        calls = []
        construct_p = figures.construct_p
        monkeypatch.setattr(
            figures, "construct_p", lambda scene: calls.append(scene) or construct_p(scene)
        )
        assert main(["figure", "pic2", "--width", "abc"]) == 2
        assert "E_PARSE" in capsys.readouterr().err
        assert calls == []
        # the counter sees the construction a good run makes
        assert main(["figure", "pic2", "--width", "300"]) == 0
        assert len(calls) == 1

    def test_unknown_figure_is_2(self):
        r = run_cli("figure", "pic99")
        assert r.returncode == 2
        assert "pic1" in r.stderr


class TestBadInputExits2:
    """Inputs that once ended in a traceback and exit 1."""

    def assert_clean_exit_2(self, r):
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    def test_inverted_viewport(self):
        r = run_cli("figure", "pic1", "--xmin", "3", "--xmax", "1")
        self.assert_clean_exit_2(r)
        assert "E_PARSE" in r.stderr

    def test_non_numeric_width(self):
        r = run_cli("figure", "pic1", "--width", "abc")
        self.assert_clean_exit_2(r)
        assert "--width" in r.stderr

    def test_zero_width(self):
        r = run_cli("figure", "pic1", "--width", "0")
        self.assert_clean_exit_2(r)
        assert "E_PARSE" in r.stderr

    def test_bad_viewport_prints_only_the_error_document(self, tmp_path):
        out = tmp_path / "scene.svg"
        r = run_cli("phor", *PIC1, "--json", "--svg-out", str(out), "--xmax", "-9")
        self.assert_clean_exit_2(r)
        assert json.loads(r.stdout)["error"]["code"] == "E_PARSE"
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials(self, trials):
        r = run_cli("check", "--trials", trials)
        self.assert_clean_exit_2(r)
        assert "passed" not in r.stdout

    def test_unwritable_svg_out(self, tmp_path):
        missing = str(tmp_path / "missing" / "scene.svg")
        r = run_cli("phor", *PIC1, "--svg-out", missing)
        self.assert_clean_exit_2(r)
        assert "E_PARSE" in r.stderr and missing in r.stderr
        assert "No such file or directory" in r.stderr
        assert r.stdout == ""

    def test_unwritable_figure_svg_out(self, tmp_path):
        # a directory cannot be opened for writing
        r = run_cli("figure", "pic1", "--svg-out", str(tmp_path))
        self.assert_clean_exit_2(r)
        assert "E_PARSE" in r.stderr and str(tmp_path) in r.stderr

    def test_over_long_literal(self):
        r = run_cli(
            "nu", "--line-g", "y=2x+" + "9" * 5000, "--line-p", "y=2x+2",
            "--epsilon", "4", "--sample", "(0, 4)",
        )
        self.assert_clean_exit_2(r)
        assert "E_PARSE" in r.stderr


NU = ("nu", "--line-g", "y=2x+4", "--line-p", "y=2x+2", "--epsilon", "4")


class TestViewportWithoutSvgOut:
    """A construction run reads its viewport flags whether or not it writes
    an SVG, so a bad one is the same parse error either way."""

    @pytest.mark.parametrize(
        "viewport", [("--width", "abc"), ("--xmin", "1", "--xmax", "0")], ids=["width", "extent"]
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_bad_flag_exits_2_as_with_svg_out(self, viewport, json_flag, tmp_path, capsys):
        argv = [*NU, "--sample", "(0, 4)", *viewport, *json_flag]
        assert main(argv) == 2
        without = capsys.readouterr()
        out = tmp_path / "scene.svg"
        assert main([*argv, "--svg-out", str(out)]) == 2
        assert capsys.readouterr() == without
        assert not out.exists()
        assert "E_PARSE" in (without.out if json_flag else without.err)

    def test_precondition_error_still_exits_3(self, capsys):
        assert main([*NU, "--sample", "(1, 1)", "--width", "abc"]) == 3
        assert "E_PRECONDITION" in capsys.readouterr().err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_valid_flags_leave_stdout_unchanged(self, json_flag, capsys):
        argv = [*NU, "--sample", "(0, 4)", *json_flag]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--xmin", "-20", "--xmax", "20", "--width", "300"]) == 0
        assert capsys.readouterr().out == plain


class TestArgvErrors:
    """An argv argparse cannot read is the typed parse error, not a usage dump."""

    @pytest.mark.parametrize("json_flag", ["--json", "--js"])
    def test_missing_flag_under_json_prints_the_error_document(self, json_flag, capsys):
        assert main(["phor", json_flag, "--line-g-s", "y=2x+4"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["construction"] == "phor"
        assert doc["error"]["code"] == "E_PARSE"
        assert "--line-g-t, --line-l" in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["phor", "--line-g-s", "y=2x+4"],
        ["check", "--seed", "abc"],
        ["phor", *PIC1, "--no-such-flag"],
        [],
        ["figure", "pic99"],
        ["check", "--trials", "0"],
        ["check", "--only", ","],
        ["check", "--only", "nope"],
    ], ids=[
        "missing", "bad-int", "unknown", "no-command",
        "unknown-figure", "zero-trials", "no-property", "unknown-property",
    ])
    def test_text_mode_prints_the_parse_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[E_PARSE]: exactplane")
        assert "usage:" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--offset", "-3/2"), ("--offset", "-3"), ("--line-g", "-2x+y=4"),
        ("--offset", "-٣/2"), ("--line-g", "-x+1/2y=2"),
    ])
    def test_negative_value_as_its_own_word(self, flag, value, capsys):
        argv = [
            "nu-general", "--line-g", "y=2x+4", "--line-p", "y=2x+2",
            "--line-axis", "1x-4y=4", "--origin", "(4, 0)", "--offset", "3",
            "--sample", "(0, 4)", "--json",
        ]
        at = argv.index(flag) + 1
        argv[at] = value
        assert main(argv) == 0
        separate = capsys.readouterr().out
        joined = argv[:at - 1] + [f"{flag}={value}"] + argv[at + 1:]
        assert main(joined) == 0
        assert capsys.readouterr().out == separate

    def test_negative_viewport_bound_as_its_own_word(self, capsys):
        assert main(["figure", "pic1", "--xmin", "-1/2"]) == 0
        separate = capsys.readouterr().out
        assert main(["figure", "pic1", "--xmin=-1/2"]) == 0
        assert capsys.readouterr().out == separate


# a short run of each kind that writes stdout, and its exit code
STDOUT_RUNS = [
    (["phor", *PIC1], 0),
    (["phor", *PIC1, "--json"], 0),
    (["figure", "pic1"], 0),
    (["check", "--trials", "1", "--only", "kernel-intersection"], 0),
    (["phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=(1", "--json"], 2),
    (["--help"], 0),
    (["phor", "--help"], 0),
]
STDOUT_RUN_IDS = ["phor", "phor-json", "figure", "check", "error-document", "help", "phor-help"]


class TestClosedStdout:
    """A reader that closes stdout early ends the output quietly: no
    traceback, and the run's own exit code."""

    @pytest.mark.parametrize("argv, code", STDOUT_RUNS, ids=STDOUT_RUN_IDS)
    def test_closed_stdout_keeps_the_exit_code(self, argv, code):
        # a pipe whose read end is closed fails every write, unlike a
        # reader that exits at some point while the child writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(BASE + argv, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (code, b"")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@needs_dev_full
class TestFullStdout:
    """Any other failed stdout write is a parse error on stderr, exit 2,
    also under --json, where the error document cannot be written."""

    @pytest.mark.parametrize("argv", [argv for argv, _ in STDOUT_RUNS], ids=STDOUT_RUN_IDS)
    def test_full_stdout_exits_2(self, argv):
        with open("/dev/full", "wb") as full:
            r = subprocess.run(BASE + argv, stdout=full, stderr=subprocess.PIPE, timeout=120)
        assert r.returncode == 2
        assert r.stderr.startswith(b"error[E_PARSE]: cannot write stdout: ")
        assert b"Traceback" not in r.stderr


PARSE_ERROR_RUN = ["phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=(1"]


class TestUnwritableStderr:
    """A failed stderr write keeps the run's own exit code: 1 stays reserved
    for a failing check suite."""

    @needs_dev_full
    @pytest.mark.parametrize("argv, code", [
        (PARSE_ERROR_RUN, 2),
        (["phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=2x+1"], 3),
        (["check", "--trials", "0"], 2),
    ], ids=["parse-error", "precondition-error", "check-usage"])
    def test_full_stderr_keeps_the_exit_code(self, argv, code):
        with open("/dev/full", "wb") as full:
            r = subprocess.run(BASE + argv, stdout=subprocess.PIPE, stderr=full, timeout=120)
        assert r.returncode == code
        assert b"Traceback" not in r.stdout

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    def test_closed_stderr_keeps_the_exit_code(self, redirect):
        r = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", *BASE, *PARSE_ERROR_RUN],
            stdout=subprocess.PIPE, timeout=120,
        )
        assert r.returncode == 2
        assert b"Traceback" not in r.stdout

    @needs_dev_full
    def test_full_stdout_and_stderr_exit_2(self):
        # neither the result nor the report of its failed write goes anywhere
        with open("/dev/full", "wb") as full:
            r = subprocess.run(BASE + ["phor", *PIC1], stdout=full, stderr=full, timeout=120)
        assert r.returncode == 2


class TestHugeResults:
    """Exact results past the int-string and float limits print cleanly."""

    def test_result_past_the_int_string_limit(self):
        # every literal has 4000 digits; p's numerator has over 8000
        sevens, threes = "7" * 4000, "3" * 4000
        r = run_cli(
            "phor",
            "--line-g-s", f"y={sevens}/{threes}*x+{threes}",
            "--line-g-t", f"y={sevens}/{threes}*x+{sevens}/{threes}",
            "--line-l", f"y={threes}/{sevens}*x+1/{sevens}",
            "--json",
        )
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr
        x = json.loads(r.stdout)["outputs"]["p"]["x"]
        assert len(x) > 8000 and x.startswith("6481481481")

    def test_pixel_past_the_float_range(self, tmp_path):
        zeros = "0" * 400
        out = tmp_path / "scene.svg"
        r = run_cli(
            "nu", "--line-g", f"y=2x+1{zeros}", "--line-p", "y=2x+1",
            "--epsilon", "1", "--sample", f"(0, 1{zeros})", "--svg-out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr
        assert 'cy="-5.00000000000e+401"' in out.read_text()


# sha256 of stdout for each README example (with --json) and each built-in
# figure.  Documents and SVGs are byte-stable, so a refactor that keeps the
# behaviour keeps every digest.
GOLDEN = {
    ("phor", *PIC1, "--json"):
        "edd3bf123941db18f9cdda99a190d7b9fd3e664585ceadad955954e827e723f8",
    ("pver", *PIC1, "--json"):
        "972fbe7007d2655e600440beb2a226f99fff85306bd7a4616e3d79b7770f9b8a",
    ("construct-p", "--line-g-s", "y=x+2", "--line-g-t", "y=x-1",
     "--line-l", "1x+1y=4", "--line-axis", "1x-3y=3", "--origin", "(3, 0)", "--json"):
        "1c43165033475e0ca2aae3a827fcf2df2b5d12df8f921ccd1ba6b54b3443f44f",
    ("nu", "--line-g", "y=2x+4", "--line-p", "y=2x+2",
     "--epsilon", "4", "--sample", "(0, 4)", "--json"):
        "ad86f2e1eecebcd461d28bbbe88f26877e1036383c69da44b8bf9d5730d0c544",
    ("mu", "--line-g", "1x-2y=4", "--line-p", "1x-2y=2",
     "--epsilon", "4", "--sample", "(4, 0)", "--json"):
        "bc3ac65d3cf6f712f820fd749fc538ff80532db9ff1073cd6de9acad01f5d914",
    ("nu-general", "--line-g", "y=2x+4", "--line-p", "y=2x+2", "--line-axis", "1x-4y=4",
     "--origin", "(4, 0)", "--offset", "3", "--sample", "(0, 4)", "--json"):
        "990e229a81ecd3664980f565bdac46109875edcc9eb2ae60a0e16de77e64dcc7",
    ("figure", "pic1"): "d997f97b8aeef1e7eb37a314bcf90d4d64315b0b826c7cec71ff61dcdfa7727a",
    ("figure", "pic2"): "4bf16be81a2f034145683797355184cba47413f1de511112aa2b73926a624455",
    ("figure", "pic3"): "89e6e0da43c90ff35047614df474eafc987396e786b0b01d14785f4e6b954c30",
    ("figure", "pic4"): "af2360070c1133654df2635a75df1c71b8869a99f216a48ee8d56b51e297c37d",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[-1] if argv[0] == "figure" else argv[0])
def test_output_matches_golden_digest(argv):
    r = subprocess.run(BASE + list(argv), capture_output=True, timeout=120)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout).hexdigest() == GOLDEN[argv]


def _strip(command, g, p, epsilon, sample):
    return (command, "--line-g", g, "--line-p", p, "--epsilon", epsilon, "--sample", sample)


# sha256 of the text output, then the --json output, then the SVG, for the
# strip scenes where nu or mu runs on an axis parallel to the pair or the
# parallelogram collapses onto the origin.  Run in-process to keep it quick.
STRIP_SCENES = {
    "nu-collapsed": _strip("nu", "y=2x+4", "y=2x", "4", "(0, 4)"),
    "nu-zero-spread": _strip("nu", "y=2x+4", "y=2x+2", "0", "(-1, 2)"),
    "mu-collapsed": _strip("mu", "1x-2y=4", "1x-2y=0", "4", "(4, 0)"),
    "nu-vertical-pair": _strip("nu", "x=2", "x=1", "3", "(2, 5)"),
    "mu-vertical-pair": _strip("mu", "x=2", "x=1", "3", "(2, 5)"),
    "nu-vertical-collapsed": _strip("nu", "x=2", "x=0", "3", "(2, 5)"),
    "mu-vertical-collapsed": _strip("mu", "x=2", "x=0", "3", "(2, 5)"),
    "nu-horizontal-pair": _strip("nu", "y=4", "y=-2", "3", "(7, 4)"),
    "mu-horizontal-pair": _strip("mu", "y=4", "y=2", "3", "(1, 4)"),
    "mu-horizontal-collapsed": _strip("mu", "y=4", "y=0", "3", "(1, 4)"),
}
STRIP_GOLDEN = {
    "nu-collapsed": "96d82b44924c1caa34d1ed6843b83a58887233344950f48cc3ec0f729703e95b",
    "nu-zero-spread": "e10ecf1dae246248ec5f751d922cd90f08d3b4eaf62a98cda9555a11bf7f495d",
    "mu-collapsed": "675eb85fb91ad2bed6fae33a54e888d8caf4bc43da0cddc0195a9f0a66446ff5",
    "nu-vertical-pair": "a6718a8d50314ab463bfd11ffb6121b34d0acfdbe0f9b5b9bd2598bf017b541d",
    "mu-vertical-pair": "5f0dc018afaedc3d42642e4270f72ea15e063852d376e21844fc4ca24571114b",
    "nu-vertical-collapsed": "a87559c0f447ddaad0939e3703f233a31568e3310db675f93d4d010ca75ed13e",
    "mu-vertical-collapsed": "a8da61a04e48f089599c489a4406c9bc4635b42ede41dbb5c894255a379709fd",
    "nu-horizontal-pair": "2c6d6880f6beaec2285ce585e608d8e2fe759b4973ae1fec2d658ba34356f8f2",
    "mu-horizontal-pair": "d7aa527134c9d94009916c016e15c46826f01a154ba86b56dd53832013b2147e",
    "mu-horizontal-collapsed": "6a851b85ff0dcae3eea1b2d8151b4c875a465b087ea56ea1d0e6370b7edb653c",
}


def _text_json_svg_digest(argv, svg, capsys):
    digest = hashlib.sha256()
    for extra in ((), ("--json", "--svg-out", str(svg))):
        assert main([*argv, *extra]) == 0
        digest.update(capsys.readouterr().out.encode())
    digest.update(svg.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(STRIP_SCENES))
def test_strip_output_matches_golden_digest(name, tmp_path, capsys):
    digest = _text_json_svg_digest(STRIP_SCENES[name], tmp_path / "scene.svg", capsys)
    assert digest == STRIP_GOLDEN[name]


README_CP = (
    "construct-p", "--line-g-s", "y=x+2", "--line-g-t", "y=x-1", "--line-l", "1x+1y=4",
)
README_NG = (
    "nu-general", "--line-g", "y=2x+4", "--line-axis", "1x-4y=4", "--origin", "(4, 0)",
    "--offset", "3", "--sample", "(0, 4)",
)

# The same digests for the README examples of the other subcommands and for
# their degenerate branches:
# S or T on the axis (s_p or t_p prints "-") and p through the center (no
# connecting line).
SCENES = {
    "phor": ("phor", *PIC1),
    "pver": ("pver", *PIC1),
    "construct-p": (*README_CP, "--line-axis", "1x-3y=3", "--origin", "(3, 0)"),
    "construct-p-s-coincides": (*README_CP, "--line-axis", "3x+4y=15", "--origin", "(5, 0)"),
    "construct-p-t-coincides": (*README_CP, "--line-axis", "3x-5y=0", "--origin", "(0, 0)"),
    "nu-general": (*README_NG, "--line-p", "y=2x+2"),
    "nu-general-collapsed": (*README_NG, "--line-p", "y=2x-8"),
}
SCENE_GOLDEN = {
    "phor": "c87db635cdd6f7450310e02951ad47d0ebbf38717759bcc66b167b42cc4a7864",
    "pver": "41a983a9304a277f9b985a6f34489c07f5e8df33b4fece931ffb3827ec9c92d8",
    "construct-p": "7ae2e9d30c75f541c10a4180e4328c801bd35004b541dab1e1b08b4dcc4b4ceb",
    "construct-p-s-coincides": "bae3260102d7303df7c48c1762e540539432bcfb9ed7f3c055e62aa082e6b6fd",
    "construct-p-t-coincides": "ff38ff693b48d7d53fed8cf502fba2f0dd5052a870410c9a49e8cf41764e749f",
    "nu-general": "fa429a69286139c2f40ebe25e22e1c6b7d39dc21ff86b6d243ea69b4804e3dfd",
    "nu-general-collapsed": "0225623f2554001826925d0b70d5bee5633eabe56044360bfe7543496779488e",
}


@pytest.mark.parametrize("name", list(SCENES))
def test_scene_output_matches_golden_digest(name, tmp_path, capsys):
    digest = _text_json_svg_digest(SCENES[name], tmp_path / "scene.svg", capsys)
    assert digest == SCENE_GOLDEN[name]


# One sha256 per pool over cli.main on a fixed scene pool from
# perfbench/gen.py (seed 0, label "pin", 20 scenes per construction): for each
# scene, the exit code, stdout, stderr and SVG bytes of a text run, a --json
# run and a --json --svg-out run.  The pool was fixed before the code it
# guards.  A change that moves a digest says why; it never shrinks or
# re-seeds the pool to hide a difference.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
POOL_FLAGS = {
    "g_s": "--line-g-s", "g_t": "--line-g-t", "l": "--line-l", "axis": "--line-axis",
    "g": "--line-g", "p": "--line-p", "origin": "--origin", "epsilon": "--epsilon",
    "offset": "--offset", "sample": "--sample",
}
POOL_GOLDEN = {
    "small": "714e8ca09e91017a0778cd4cf0961267a028be1ddf60080f76f680b6ebd1abd6",
    "wide": "d3e04badffa799aa0d88876a3d3318bc288fd2c9a682f36c426dff9c3ea9964c",
}


def _scene_pool(wide):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen.scene_pool(0, wide, 20, "pin")


@pytest.mark.parametrize("pool", list(POOL_GOLDEN))
def test_scene_pool_output_matches_golden_digest(pool, tmp_path, capsys):
    svg = tmp_path / "scene.svg"
    digest = hashlib.sha256()
    for scene, _ in _scene_pool(pool == "wide"):
        argv = [scene.kind, *(f"{POOL_FLAGS[k]}={v}" for k, v in scene.texts.items())]
        for extra in ((), ("--json",), ("--json", f"--svg-out={svg}")):
            svg.unlink(missing_ok=True)
            code = main([*argv, *extra])
            out, err = capsys.readouterr()
            drawn = svg.read_bytes() if svg.exists() else b""
            digest.update(repr((code, out, err, drawn)).encode())
    assert digest.hexdigest() == POOL_GOLDEN[pool]


# sha256 of the --json error envelope: exit code, then document
ERROR_GOLDEN = {
    ("phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=2x+1"):
        (3, "859f1c91f786a6e5b27e416cd392973005472c84fcc6ebd9111e6f28dcee17de"),
    ("phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=(1"):
        (2, "0763263fba74add4fa51730cd20301f6ed54749c851d1f91172028675bf878f9"),
}


@pytest.mark.parametrize("argv", list(ERROR_GOLDEN), ids=["E_PARALLEL", "E_PARSE"])
def test_error_envelope_matches_golden_digest(argv, capsys):
    code, digest = ERROR_GOLDEN[argv]
    assert main([*argv, "--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestCheckCommand:
    def test_small_run_passes_and_is_deterministic(self):
        a = run_cli("check", "--seed", "7", "--trials", "5")
        b = run_cli("check", "--seed", "7", "--trials", "5")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert "PASS kernel-intersection: 5/5" in a.stdout
        assert "all 21 properties passed" in a.stdout

    def test_only_subset(self):
        r = run_cli("check", "--trials", "3", "--only", "strip-closed-forms,swap-invariance")
        assert r.returncode == 0
        assert "strip-closed-forms" in r.stdout
        assert "kernel-intersection" not in r.stdout

    def test_repeated_only_name_runs_once(self, capsys):
        only = "kernel-intersection,kernel-intersection"
        assert main(["check", "--trials", "1", "--only", only]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1
        assert "all 1 properties passed" in out

    @pytest.mark.parametrize("only", [",", " ", ""], ids=["comma", "space", "empty"])
    def test_only_naming_no_property_is_2(self, only, capsys):
        # a run over no property would pass on zero evidence
        assert main(["check", "--only", only]) == 2
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert "no property" in captured.err
