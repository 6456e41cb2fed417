"""The four workloads: what one operation is, and how its output is checked.

Every workload owns a fixed pool of operations made from the seed.  The
timed loop cycles through the pool; every pool item is also validated once,
outside the timed region, against the library's independent oracles, and
every repetition must reproduce the first output byte for byte.

The library is reached only through module attributes (``dp.p_hor``,
``textio.parse_point``), so a traced pass sees each call at its boundary.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gen
from spans import TRACE_MARK

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD = Path(__file__).resolve().parent / "cli_child.py"

TITLES = {
    "phor": "Distinguished point on a transversal",
    "pver": "Distinguished point on a transversal",
    "construct-p": "Construction relative to an axis",
    "nu": "Parallelogram intercept",
    "mu": "Parallelogram intercept",
    "nu-general": "Parallelogram intercept on an axis",
}

FLAGS = {
    "g_s": "--line-g-s", "g_t": "--line-g-t", "l": "--line-l", "axis": "--line-axis",
    "g": "--line-g", "p": "--line-p", "origin": "--origin", "epsilon": "--epsilon",
    "offset": "--offset", "sample": "--sample",
}

FIGURE_NAMES = ("pic1", "pic2", "pic3", "pic4")


class Lib:
    """Freshly imported exactplane modules (see :func:`import_fresh`)."""

    def __init__(self, with_cli: bool):
        load = importlib.import_module
        self.package = load("exactplane")
        self.errors = load("exactplane.errors")
        self.textio = load("exactplane.textio")
        self.dp = load("exactplane.double_projection")
        self.ap = load("exactplane.axis_projection")
        self.pg = load("exactplane.parallelogram")
        self.pga = load("exactplane.parallelogram_axis")
        self.figures = load("exactplane.figures")
        self.checks = load("exactplane.checks")
        self.cli = load("exactplane.cli") if with_cli else None


def import_fresh(with_cli: bool) -> Lib:
    """Drop every loaded exactplane module and import the package again."""
    for name in [n for n in sys.modules if n == "exactplane" or n.startswith("exactplane.")]:
        del sys.modules[name]
    lib = Lib(with_cli)
    origin = Path(lib.package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"exactplane was imported from {origin}, not from {SRC}")
    return lib


# ------------------------------------------------------------------ outcomes

@dataclass
class Outcome:
    """What one operation produced."""

    output: bytes  # every byte the operation emitted, hashed and compared
    code: Optional[str] = None  # GeomError code, or CLI error code
    problem: Optional[str] = None  # an observed failure that needs no oracle
    value: object = None  # library result, kept for validation
    scene: object = None
    svg_bytes: int = 0
    stderr: str = ""  # a CLI child's stderr, without the trace record


# ------------------------------------------------------------ scene pipeline

def run_scene(lib: Lib, scene: gen.Scene, svg: bool) -> Outcome:
    """Parse, build the scene object, construct, format, maybe render."""
    t = scene.texts
    tx, dp, ap, pg, pga, fig = lib.textio, lib.dp, lib.ap, lib.pg, lib.pga, lib.figures
    line, point, sc = tx.parse_line_spec, tx.parse_point, tx.parse_scalar
    fp, fs, fl = tx.format_point, tx.format_scalar, tx.format_line
    kind = scene.kind
    try:
        if kind in ("phor", "pver"):
            obj = dp.TransversalScene(g_s=line(t["g_s"]), g_t=line(t["g_t"]), l=line(t["l"]))
            value = dp.p_hor(obj) if kind == "phor" else dp.p_ver(obj)
            lines = [value.case_tag.value, fp(value.point), fp(value.s), fp(value.t),
                     fs(value.a_or_b_s), fs(value.a_or_b_t), fs(value.rho),
                     fs(value.alpha), fs(value.beta)]
            elements = lambda: fig.transversal_elements(obj, [value], mark_intercepts=True)
        elif kind == "construct-p":
            obj = ap.AxisScene(g_s=line(t["g_s"]), g_t=line(t["g_t"]), l=line(t["l"]),
                               axis=line(t["axis"]), origin=point(t["origin"]))
            value = ap.construct_p(obj)
            lines = [value.case_tag.value, fp(value.p), fl(value.axis_p), fp(value.s_axis),
                     fp(value.t_axis),
                     "-" if value.s_p is None else fp(value.s_p),
                     "-" if value.t_p is None else fp(value.t_p)]
            elements = lambda: fig.axis_projection_elements(value)
        elif kind in ("nu", "mu"):
            obj = pg.StripScene(g=line(t["g"]), p=line(t["p"]), epsilon=sc(t["epsilon"]),
                                sample=point(t["sample"]))
            value = pg.build_witness(obj) if kind == "nu" else pg.mu_witness(obj)
            lines = [fs(value.nu), fp(value.s_bar), fp(value.t_bar), fp(value.neg_s_bar),
                     fp(value.neg_t_bar), fl(value.connecting_line)]
            label = "ν" if kind == "nu" else "μ"
            elements = lambda: fig.strip_elements(obj, value, label)
        else:
            obj = pga.AxisStripScene(g=line(t["g"]), p=line(t["p"]), axis=line(t["axis"]),
                                     origin=point(t["origin"]), offset=sc(t["offset"]),
                                     sample=point(t["sample"]))
            value = pga.nu_general(obj)
            lines = [fp(value.nu_point), fp(value.s_bar), fp(value.t_bar),
                     fp(value.neg_s_bar), fp(value.neg_t_bar),
                     "-" if value.connecting_line is None else fl(value.connecting_line)]
            elements = lambda: fig.axis_strip_elements(value)
        text = "\n".join(lines) + "\n"
        svg_text = fig.render_svg(TITLES[kind], elements(), fig.Viewport()) if svg else ""
    except lib.errors.GeomError as err:
        return Outcome(f"error[{err.code}]\n".encode(), code=err.code)
    except Exception as err:  # recorded as a failed operation, the run goes on
        return Outcome(b"", problem=f"unexpected {type(err).__name__}: {err}")
    svg_data = svg_text.encode("utf-8")
    return Outcome(text.encode("utf-8") + svg_data, value=value, scene=obj,
                   svg_bytes=len(svg_data))


def main_point(kind: str, value) -> tuple:
    if kind in ("phor", "pver"):
        return value.point.x, value.point.y
    if kind == "construct-p":
        return value.p.x, value.p.y
    if kind == "nu":
        return value.nu, Fraction(0)
    if kind == "mu":
        return Fraction(0), value.nu
    return value.nu_point.x, value.nu_point.y


def check_library_result(lib: Lib, scene: gen.Scene, obj, value) -> Optional[str]:
    """Play a construction's result against the library's independent oracles."""
    dp, pg, pga, tx = lib.dp, lib.pg, lib.pga, lib.textio
    kind = scene.kind
    if kind in ("phor", "pver"):
        closed = dp.p_hor_closed_form(obj) if kind == "phor" else dp.p_ver_closed_form(obj)
        case = dp.ProjectionCase.HORIZONTAL_A if kind == "phor" else dp.ProjectionCase.VERTICAL_B
        oracle = dp.oracle_point(obj, case)
        if not value.point == closed == oracle:
            return f"{kind}: point {value.point}, closed form {closed}, oracle {oracle}"
    elif kind == "construct-p":
        bad = [name for name, ok in lib.ap.verify_p2(value).items() if not ok]
        if bad:
            return f"construct-p: verify_p2 failed {', '.join(bad)}"
    elif kind in ("nu", "mu"):
        closed = pg.nu_closed_form(obj) if kind == "nu" else pg.mu_closed_form(obj)
        if value.nu != closed:
            return f"{kind}: pipeline {value.nu}, closed form {closed}"
    else:
        second = tx.parse_point(scene.extra["sample2"])
        if not pga.nu_general_invariance(obj.g, obj.p, obj.axis, obj.origin, obj.offset,
                                         [obj.sample, second]):
            return "nu-general: the axis point moved with the sample"
    x, y = main_point(kind, value)
    if tx.parse_scalar(tx.format_scalar(x)) != x or tx.parse_scalar(tx.format_scalar(y)) != y:
        return f"{kind}: formatted output does not parse back to the same value"
    return None


def check_svg(kind: str, value, svg: str) -> Optional[str]:
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
        return f"{kind}: SVG document is truncated"
    x, y = main_point(kind, value)
    if f'data-x="{gen.scalar_text(x)}" data-y="{gen.scalar_text(y)}"' not in svg:
        return f"{kind}: SVG has no mark at the constructed point"
    return None


def check_scene(lib: Lib, scene: gen.Scene, svg: bool, out: Outcome) -> Optional[str]:
    if out.problem:
        return out.problem
    if scene.expect_code is not None:
        if out.code != scene.expect_code:
            return f"{scene.kind}: expected error {scene.expect_code}, got {out.code or 'a result'}"
        return None
    if out.code is not None:
        return f"{scene.kind}: valid scene rejected with {out.code}"
    problem = check_library_result(lib, scene, out.scene, out.value)
    if problem is None and svg:
        problem = check_svg(scene.kind, out.value, svg_part(out))
    return problem


def svg_part(out: Outcome) -> str:
    return out.output[len(out.output) - out.svg_bytes:].decode("utf-8")


# ---------------------------------------------------------------- workloads

class Workload:
    """A pool of operations; subclasses define one operation and its check.

    ``size`` overrides the pool's scale (scenes or CLI calls per construction
    kind, or trials per check call); only the tests shrink it.  ``warmup``
    pool items run during set-up.
    """

    name = ""
    in_process = True  # False: each operation is a child process
    with_cli = False
    warmup = 32

    def __init__(self, seed: int, size: Optional[int] = None):
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        """Import the package, build the pool, warm up; timed as ``setup_s``."""
        self.lib = import_fresh(self.with_cli)
        self.pool = self.make_pool()
        for i in range(min(self.warmup, len(self.pool))):
            self.finish(i, self.run(i))

    def make_pool(self) -> list:
        raise NotImplementedError

    def run(self, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, i: int, out: Outcome) -> Optional[str]:
        raise NotImplementedError

    def finish(self, i: int, out: Outcome) -> Optional[dict]:
        """Post-process an outcome outside the timed region; may return a trace record."""
        return None

    def ops_in(self, i: int) -> int:
        """Operations counted by pool item ``i`` (trials on the check suite)."""
        return 1

    def failed_in(self, i: int, out: Outcome) -> int:
        """Operations of a run of pool item ``i`` that failed, given it failed."""
        return self.ops_in(i)


class Scenes(Workload):
    wide = False
    per_kind = 80

    def make_pool(self) -> list:
        per_kind = self.size or self.per_kind
        return gen.scene_pool(self.seed, self.wide, per_kind, self.name)

    def run(self, i: int) -> Outcome:
        scene, svg = self.pool[i]
        return run_scene(self.lib, scene, svg)

    def check(self, i: int, out: Outcome) -> Optional[str]:
        scene, svg = self.pool[i]
        return check_scene(self.lib, scene, svg, out)


class ScenesSmall(Scenes):
    name = "scenes-small"


class ScenesWide(Scenes):
    name = "scenes-wide"
    wide = True
    per_kind = 120
    warmup = 12


class CheckSuite(Workload):
    name = "check-suite"
    with_cli = True
    warmup = 0
    trials = 16
    passes = 8

    def setup(self) -> None:
        super().setup()
        self.run_check(self.seed, 2)  # warm up every property once

    def make_pool(self) -> list:
        trials = self.size or self.trials
        return [(self.seed * self.passes + k, trials) for k in range(self.passes)]

    def run_check(self, seed: int, trials: int) -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(["check", "--seed", str(seed), "--trials", str(trials)])
        return Outcome(buf.getvalue().encode("utf-8"), code=str(rc))

    def run(self, i: int) -> Outcome:
        return self.run_check(*self.pool[i])

    def ops_in(self, i: int) -> int:
        return len(self.lib.checks.PROPERTY_NAMES) * self.pool[i][1]

    def failed_trials(self, i: int, out: Outcome) -> int:
        """Failing trials reported by the suite; all of them if unreadable."""
        names = self.lib.checks.PROPERTY_NAMES
        trials = self.pool[i][1]
        lines = out.output.decode("utf-8").splitlines()
        if out.code not in ("0", "1") or not lines:
            return len(names) * trials
        failed = 0
        seen = []
        for text in lines[:-1]:
            if text.startswith("PASS "):
                name, counts = text[5:].split(": ", 1)
                if counts != f"{trials}/{trials}":
                    return len(names) * trials
                seen.append(name)
            elif text.startswith("FAIL "):
                name, rest = text[5:].split(": ", 1)
                failed += int(rest.split(" ", 1)[0])
                seen.append(name)
        if tuple(seen) != tuple(names):
            return len(names) * trials
        if failed == 0 and (out.code != "0" or lines[-1] != f"all {len(names)} properties passed"):
            return len(names) * trials
        return failed

    def failed_in(self, i: int, out: Outcome) -> int:
        return self.failed_trials(i, out) or self.ops_in(i)

    def check(self, i: int, out: Outcome) -> Optional[str]:
        failed = self.failed_trials(i, out)
        if failed:
            return f"check --seed {self.pool[i][0]}: {failed} failed trials, exit {out.code}"
        return None


@dataclass
class CliItem:
    argv: List[str]
    expect_exit: int
    kind: str  # a construction, or "figure"
    scene: Optional[gen.Scene] = None
    expect_code: Optional[str] = None
    svg_path: Optional[Path] = None


class CliOneshot(Workload):
    """One ``python -m exactplane.cli`` process per operation."""

    name = "cli-oneshot"
    in_process = False
    with_cli = True
    warmup = 2
    per_kind = 10
    traced: Optional[str] = None  # "spans" or "fractions" runs the traced child

    def make_pool(self) -> list:
        per_kind = self.size or self.per_kind
        rng = random.Random(f"{self.name}:{self.seed}")
        scenes = gen.SceneGen(rng, wide=False)
        work = OUT / "work"
        work.mkdir(parents=True, exist_ok=True)
        pool: List[CliItem] = []
        for kind in gen.KINDS:
            for j in range(per_kind):
                # per kind: one malformed (exit 2), one degenerate (exit 3),
                # the rest valid, two of them also rendering SVG
                degenerate = j == per_kind - 1
                scene = scenes.scene(kind, degenerate)
                texts = dict(scene.texts)
                item = CliItem([], 0, kind, scene)
                if degenerate:
                    item.expect_exit, item.expect_code = 3, scene.expect_code
                elif j == per_kind - 2:
                    key = rng.choice(sorted(texts))
                    texts[key] += " ?"
                    item.expect_exit, item.expect_code = 2, "E_PARSE"
                item.argv = [kind] + [f"{FLAGS[k]}={v}" for k, v in texts.items()] + ["--json"]
                if item.expect_exit == 0 and j in (1, 5):
                    # every run writes a new file: rewriting an existing one
                    # can stall on the file system's flush-on-truncate
                    item.svg_path = work / f"cli-{kind}-{j}.svg"
                    item.svg_path.unlink(missing_ok=True)
                    item.argv.append(f"--svg-out={item.svg_path}")
                pool.append(item)
        pool.extend(CliItem(["figure", name], 0, "figure") for name in FIGURE_NAMES)
        rng.shuffle(pool)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        return pool

    def run(self, i: int) -> Outcome:
        item = self.pool[i]
        if self.traced:
            cmd = [sys.executable, str(CHILD), self.traced, *item.argv]
        else:
            cmd = [sys.executable, "-m", "exactplane.cli", *item.argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        return Outcome(proc.stdout, code=str(proc.returncode),
                       stderr=proc.stderr.decode("utf-8", "replace"))

    def finish(self, i: int, out: Outcome) -> Optional[dict]:
        """Strip the traced child's record from stderr; append the SVG file."""
        record = None
        if TRACE_MARK in out.stderr:
            out.stderr, _, tail = out.stderr.partition(TRACE_MARK)
            record = json.loads(tail)
        path = self.pool[i].svg_path
        if path is not None and path.is_file():
            data = path.read_bytes()
            path.unlink()
            out.output += data
            out.svg_bytes = len(data)
        elif self.pool[i].kind == "figure":
            out.svg_bytes = len(out.output)
        return record

    def check(self, i: int, out: Outcome) -> Optional[str]:
        item = self.pool[i]
        stderr = out.stderr
        where = item.argv[0]
        if "Traceback" in stderr:
            return f"{where}: Traceback on stderr"
        if out.code != str(item.expect_exit):
            return f"{where}: exit {out.code}, expected {item.expect_exit}: {stderr.strip()[-200:]}"
        stdout = out.output[: len(out.output) - out.svg_bytes] if item.svg_path else out.output
        if item.kind == "figure":
            want = self.lib.figures.render_figure(item.argv[1]).encode("utf-8")
            return None if stdout == want else f"figure {item.argv[1]}: SVG differs from the library"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"{where}: stdout is not one JSON document"
        if item.expect_code is not None:
            code = doc.get("error", {}).get("code")
            return None if code == item.expect_code else (
                f"{where}: error code {code}, expected {item.expect_code}")
        lib_out = run_scene(self.lib, item.scene, svg=False)
        problem = check_scene(self.lib, item.scene, False, lib_out)
        if problem:
            return problem
        want = expected_outputs(self.lib, item.kind, lib_out.value)
        if doc.get("construction") != item.kind or doc.get("outputs") != want:
            return f"{where}: JSON outputs {doc.get('outputs')} differ from the library {want}"
        if item.kind == "construct-p" and not all(doc["witnesses"]["checks"].values()):
            return "construct-p: JSON reports a failed contract check"
        if item.svg_path is not None:
            return check_svg(item.kind, lib_out.value, svg_part(out)) if out.svg_bytes else (
                f"{where}: no SVG file written")
        return None


def expected_outputs(lib: Lib, kind: str, value) -> dict:
    """The ``outputs`` object of the CLI's JSON document for a library result."""
    fs = lib.textio.format_scalar

    def pt(p):
        return None if p is None else {"x": fs(p.x), "y": fs(p.y)}

    if kind in ("phor", "pver"):
        return {"p": pt(value.point)}
    if kind == "construct-p":
        return {"p": pt(value.p), "axis_p": lib.textio.format_line(value.axis_p),
                "s_p": pt(value.s_p), "t_p": pt(value.t_p),
                "s_axis": pt(value.s_axis), "t_axis": pt(value.t_axis)}
    if kind in ("nu", "mu"):
        return {kind: fs(value.nu)}
    return {"nu_point": pt(value.nu_point)}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (CliOneshot, CheckSuite, ScenesSmall, ScenesWide)
}


def digest(outputs: List[bytes]) -> str:
    h = hashlib.sha256()
    for data in outputs:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()
