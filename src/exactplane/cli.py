"""Command-line front end.

Every flag value is taken as a plain string and parsed by the same grammar
the library exposes, so a malformed line or point yields the structured
parse error (exit code 2) instead of an argparse usage dump.  Geometry
preconditions exit 3, an internal cross-check failure exits 4, and a failing
check suite exits 1.

With ``--json`` each run prints a single result document: ``construction``,
``inputs`` (echoed in canonical text form), ``outputs``, ``case`` and
``witnesses`` on success, or the same envelope with an ``error`` object and
the raw input strings when the run is rejected.  Rationals are rendered as
``p/q`` strings so the documents are exact and byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import axis_projection as ap
from . import double_projection as dp
from . import parallelogram as pg
from . import parallelogram_axis as pga
from .checks import PROPERTY_NAMES, run_all, summarize
from .errors import GeomError, InconsistentError, ParseError
from .figures import (
    FIGURES,
    Viewport,
    axis_projection_elements,
    axis_strip_elements,
    render_svg,
    strip_elements,
    transversal_elements,
)
from .kernel import Point
from .textio import format_line, format_point, format_scalar, parse_line_spec, parse_point, parse_scalar


# ------------------------------------------------------------- JSON helpers

def _point_doc(p: Point) -> Dict[str, str]:
    return {"x": format_scalar(p.x), "y": format_scalar(p.y)}


def _maybe_point_doc(p: Optional[Point]):
    return None if p is None else _point_doc(p)


def _emit(args, doc: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_svg(args, title: str, elements) -> None:
    # runs before _emit, so a bad viewport flag prints only its error
    if getattr(args, "svg_out", None):
        vp = _viewport(args, Viewport())
        _write_svg_out(args.svg_out, render_svg(title, elements, vp))


def _write_svg_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ParseError(
            f"cannot write --svg-out {path!r}: {err.strerror or err}",
            0,
            "a writable file path",
        ) from None


_VIEWPORT_FLAGS = ("xmin", "xmax", "ymin", "ymax", "width", "height")


def _viewport(args, default: Viewport) -> Viewport:
    parsed = {}
    for name in _VIEWPORT_FLAGS:
        raw = getattr(args, name, None)
        if raw is not None:
            parsed[name] = _pixels(name, raw) if name in ("width", "height") else parse_scalar(raw)
    if not parsed:
        return default
    try:
        return dataclasses.replace(default, **parsed)
    except ValueError as err:
        raise ParseError(
            f"bad viewport: {err}", 0, "xmin < xmax, ymin < ymax and positive pixel sizes"
        ) from None


def _pixels(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad --{name} {raw!r}", 0, "a whole number of pixels") from None


# ------------------------------------------------------------- subcommands

def _projection_witness_doc(w: dp.ProjectionWitness) -> dict:
    return {
        "rho": format_scalar(w.rho),
        "alpha": format_scalar(w.alpha),
        "beta": format_scalar(w.beta),
        "s": _point_doc(w.s),
        "t": _point_doc(w.t),
        "a_or_b_s": format_scalar(w.a_or_b_s),
        "a_or_b_t": format_scalar(w.a_or_b_t),
        "case_tag": w.case_tag.value,
    }


def _cmd_projection(args) -> int:
    horizontal = args.command == "phor"
    scene = dp.TransversalScene(
        g_s=parse_line_spec(args.line_g_s),
        g_t=parse_line_spec(args.line_g_t),
        l=parse_line_spec(args.line_l),
    )
    witness = dp.p_hor(scene) if horizontal else dp.p_ver(scene)
    intercept_names = ("a_s", "a_t") if horizontal else ("b_s", "b_t")
    doc = {
        "construction": args.command,
        "inputs": {
            "g_s": format_line(scene.g_s),
            "g_t": format_line(scene.g_t),
            "l": format_line(scene.l),
        },
        "outputs": {"p": _point_doc(witness.point)},
        "case": witness.case_tag.value,
        "witnesses": _projection_witness_doc(witness),
    }
    lines = [
        f"case: {witness.case_tag.value}",
        f"p: {format_point(witness.point)}",
        f"s: {format_point(witness.s)}",
        f"t: {format_point(witness.t)}",
        f"{intercept_names[0]}: {format_scalar(witness.a_or_b_s)}",
        f"{intercept_names[1]}: {format_scalar(witness.a_or_b_t)}",
        f"rho: {format_scalar(witness.rho)}",
        f"alpha: {format_scalar(witness.alpha)}",
        f"beta: {format_scalar(witness.beta)}",
    ]
    _write_svg(
        args,
        "Distinguished point on a transversal",
        transversal_elements(scene, [witness], mark_intercepts=True),
    )
    _emit(args, doc, lines)
    return 0


def _cmd_construct_p(args) -> int:
    scene = ap.AxisScene(
        g_s=parse_line_spec(args.line_g_s),
        g_t=parse_line_spec(args.line_g_t),
        l=parse_line_spec(args.line_l),
        axis=parse_line_spec(args.line_axis),
        origin=parse_point(args.origin),
    )
    result = ap.construct_p(scene)
    checks = ap.verify_p2(result)
    doc = {
        "construction": "construct-p",
        "inputs": {
            "g_s": format_line(scene.g_s),
            "g_t": format_line(scene.g_t),
            "l": format_line(scene.l),
            "axis": format_line(scene.axis),
            "origin": _point_doc(scene.origin),
        },
        "outputs": {
            "p": _point_doc(result.p),
            "axis_p": format_line(result.axis_p),
            "s_p": _maybe_point_doc(result.s_p),
            "t_p": _maybe_point_doc(result.t_p),
            "s_axis": _point_doc(result.s_axis),
            "t_axis": _point_doc(result.t_axis),
        },
        "case": result.case_tag.value,
        "witnesses": {
            "s": _point_doc(result.s),
            "t": _point_doc(result.t),
            "z_s": format_line(result.z_s),
            "z_t": format_line(result.z_t),
            "checks": checks,
        },
    }
    lines = [
        f"case: {result.case_tag.value}",
        f"p: {format_point(result.p)}",
        f"axis_p: {format_line(result.axis_p)}",
        f"s_axis: {format_point(result.s_axis)}",
        f"t_axis: {format_point(result.t_axis)}",
        f"s_p: {format_point(result.s_p) if result.s_p is not None else '-'}",
        f"t_p: {format_point(result.t_p) if result.t_p is not None else '-'}",
        f"verified: {sum(checks.values())}/{len(checks)}",
    ]
    _write_svg(
        args, "Construction relative to an axis", axis_projection_elements(result)
    )
    _emit(args, doc, lines)
    return 0


def _strip_witness_doc(w: pg.ParallelogramWitness) -> dict:
    return {
        "s": _point_doc(w.s),
        "t": _point_doc(w.t),
        "s_bar": _point_doc(w.s_bar),
        "t_bar": _point_doc(w.t_bar),
        "neg_s_bar": _point_doc(w.neg_s_bar),
        "neg_t_bar": _point_doc(w.neg_t_bar),
        "connecting_line": format_line(w.connecting_line),
    }


def _strip_lines(w: pg.ParallelogramWitness, label: str, value: Fraction) -> List[str]:
    return [
        f"{label}: {format_scalar(value)}",
        f"s_bar: {format_point(w.s_bar)}",
        f"t_bar: {format_point(w.t_bar)}",
        f"neg_s_bar: {format_point(w.neg_s_bar)}",
        f"neg_t_bar: {format_point(w.neg_t_bar)}",
        f"connecting: {format_line(w.connecting_line)}",
        f"case: {'collapsed' if w.t_bar == w.neg_s_bar else 'main'}",
    ]


def _cmd_strip(args) -> int:
    swap = args.command == "mu"
    scene = pg.StripScene(
        g=parse_line_spec(args.line_g),
        p=parse_line_spec(args.line_p),
        epsilon=parse_scalar(args.epsilon),
        sample=parse_point(args.sample),
    )
    witness = pg.mu_witness(scene) if swap else pg.build_witness(scene)
    value = witness.nu
    doc = {
        "construction": args.command,
        "inputs": {
            "g": format_line(scene.g),
            "p": format_line(scene.p),
            "epsilon": format_scalar(scene.epsilon),
            "sample": _point_doc(scene.sample),
        },
        "outputs": {args.command: format_scalar(value)},
        "case": "collapsed" if witness.t_bar == witness.neg_s_bar else "main",
        "witnesses": _strip_witness_doc(witness),
    }
    _write_svg(
        args,
        "Parallelogram intercept",
        strip_elements(scene, witness, "μ" if swap else "ν"),
    )
    _emit(args, doc, _strip_lines(witness, args.command, value))
    return 0


def _cmd_nu_general(args) -> int:
    scene = pga.AxisStripScene(
        g=parse_line_spec(args.line_g),
        p=parse_line_spec(args.line_p),
        axis=parse_line_spec(args.line_axis),
        origin=parse_point(args.origin),
        offset=parse_scalar(args.offset),
        sample=parse_point(args.sample),
    )
    result = pga.nu_general(scene)
    collapsed = result.connecting_line is None
    doc = {
        "construction": "nu-general",
        "inputs": {
            "g": format_line(scene.g),
            "p": format_line(scene.p),
            "axis": format_line(scene.axis),
            "origin": _point_doc(scene.origin),
            "offset": format_scalar(scene.offset),
            "sample": _point_doc(scene.sample),
        },
        "outputs": {"nu_point": _point_doc(result.nu_point)},
        "case": "collapsed" if collapsed else "main",
        "witnesses": {
            "s": _point_doc(result.s),
            "t": _point_doc(result.t),
            "s_bar": _point_doc(result.s_bar),
            "t_bar": _point_doc(result.t_bar),
            "neg_s_bar": _point_doc(result.neg_s_bar),
            "neg_t_bar": _point_doc(result.neg_t_bar),
            "connecting_line": None if collapsed else format_line(result.connecting_line),
        },
    }
    lines = [
        f"nu_point: {format_point(result.nu_point)}",
        f"s_bar: {format_point(result.s_bar)}",
        f"t_bar: {format_point(result.t_bar)}",
        f"neg_s_bar: {format_point(result.neg_s_bar)}",
        f"neg_t_bar: {format_point(result.neg_t_bar)}",
        f"connecting: {'-' if collapsed else format_line(result.connecting_line)}",
        f"case: {'collapsed' if collapsed else 'main'}",
    ]
    _write_svg(args, "Parallelogram intercept on an axis", axis_strip_elements(result))
    _emit(args, doc, lines)
    return 0


def _cmd_check(args) -> int:
    names: Optional[List[str]] = None
    if args.only:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(names) - set(PROPERTY_NAMES))
        if unknown:
            print(f"unknown properties: {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(PROPERTY_NAMES)}", file=sys.stderr)
            return 2
    if args.trials < 1:
        print(f"--trials must be positive, not {args.trials}", file=sys.stderr)
        return 2
    reports = run_all(args.seed, args.trials, names)
    print(summarize(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_figure(args) -> int:
    try:
        builder = FIGURES[args.name]
    except KeyError:
        print(
            f"unknown figure {args.name!r}; available: {', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 2
    title, elements, default_vp = builder()
    svg = render_svg(title, elements, _viewport(args, default_vp))
    if args.svg_out:
        _write_svg_out(args.svg_out, svg)
    else:
        sys.stdout.write(svg)
    return 0


# ------------------------------------------------------------------ parser

def _add_common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="print a JSON result document")
    sub.add_argument("--svg-out", metavar="PATH", help="also render the scene as SVG")
    _add_viewport_flags(sub)


def _add_viewport_flags(sub: argparse.ArgumentParser) -> None:
    for name in ("xmin", "xmax", "ymin", "ymax"):
        sub.add_argument(f"--{name}", metavar="R", help=f"viewport {name} (rational)")
    sub.add_argument("--width", metavar="PX", help="viewport width in pixels")
    sub.add_argument("--height", metavar="PX", help="viewport height in pixels")


def _line_flag(sub: argparse.ArgumentParser, name: str, role: str) -> None:
    sub.add_argument(
        f"--line-{name}",
        dest=f"line_{name.replace('-', '_')}",
        metavar="SPEC",
        required=True,
        help=f"{role}, e.g. 'y=2*x+4', 'x=-2' or '2x+3y=1/2'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactplane",
        description="Exact rational constructions on parallel lines and transversals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("phor", "point whose horizontal shifts land on the two origin rays"),
        ("pver", "point whose vertical shifts land on the two origin rays"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _line_flag(sub, "g-s", "first base line")
        _line_flag(sub, "g-t", "second base line")
        _line_flag(sub, "l", "transversal line")
        _add_common_output_flags(sub)
        sub.set_defaults(handler=_cmd_projection)

    sub = commands.add_parser(
        "construct-p", help="the same point relative to an arbitrary axis and center"
    )
    _line_flag(sub, "g-s", "first base line")
    _line_flag(sub, "g-t", "second base line")
    _line_flag(sub, "l", "transversal line")
    _line_flag(sub, "axis", "reference axis")
    sub.add_argument("--origin", metavar="POINT", required=True, help="center, e.g. '(3, 0)'")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_construct_p)

    for name, blurb in (
        ("nu", "x-axis intercept of the parallelogram's connecting line"),
        ("mu", "the coordinate-swapped variant of nu"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _line_flag(sub, "g", "source line")
        _line_flag(sub, "p", "target line (parallel to the source)")
        sub.add_argument("--epsilon", metavar="R", required=True, help="half-spread, e.g. '4' or '1/2'")
        sub.add_argument("--sample", metavar="POINT", required=True, help="sample point on the source line")
        _add_common_output_flags(sub)
        sub.set_defaults(handler=_cmd_strip)

    sub = commands.add_parser(
        "nu-general", help="the parallelogram intercept relative to an arbitrary axis"
    )
    _line_flag(sub, "g", "source line")
    _line_flag(sub, "p", "target line (parallel to the source)")
    _line_flag(sub, "axis", "reference axis")
    sub.add_argument("--origin", metavar="POINT", required=True, help="projection center on the axis")
    sub.add_argument("--offset", metavar="R", required=True, help="signed shift along the axis direction")
    sub.add_argument("--sample", metavar="POINT", required=True, help="sample point on the source line")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_nu_general)

    sub = commands.add_parser("check", help="run the seeded property suite")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--trials", type=int, default=100, help="trials per property (default 100)")
    sub.add_argument("--only", metavar="NAMES", help="comma-separated property names")
    sub.set_defaults(handler=_cmd_check, json=False)

    sub = commands.add_parser("figure", help="render a built-in figure as SVG")
    sub.add_argument("name", help=f"one of: {', '.join(sorted(FIGURES))}")
    sub.add_argument("--svg-out", metavar="PATH", help="write here instead of stdout")
    _add_viewport_flags(sub)
    sub.set_defaults(handler=_cmd_figure, json=False)

    return parser


def _raw_inputs(args) -> Dict[str, str]:
    names = (
        ("line_g_s", "g_s"),
        ("line_g_t", "g_t"),
        ("line_l", "l"),
        ("line_axis", "axis"),
        ("line_g", "g"),
        ("line_p", "p"),
        ("origin", "origin"),
        ("epsilon", "epsilon"),
        ("offset", "offset"),
        ("sample", "sample"),
    )
    return {
        label: getattr(args, attr)
        for attr, label in names
        if getattr(args, attr, None) is not None
    }


def _report_error(args, err: GeomError) -> None:
    # str(err) keeps the position/expected suffix of parse errors
    if getattr(args, "json", False):
        doc = {
            "construction": args.command,
            "inputs": _raw_inputs(args),
            "error": {"code": err.code, "message": str(err)},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"error[{err.code}]: {err}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as err:
        _report_error(args, err)
        return 2
    except InconsistentError as err:
        _report_error(args, err)
        return 4
    except GeomError as err:
        _report_error(args, err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
