"""Command-line front end.

One table, ``_CONSTRUCTIONS``, gives each construction subcommand its scene
type, runner and help line.  Each scene field is one required flag, named by
``textio.field_flag`` (``g_s`` is ``--line-g-s``, ``origin`` is ``--origin``)
and read as a plain string by the library's grammar for the field's type, so
a malformed line or point yields the structured parse error (exit code 2)
instead of an argparse usage dump.  So does any argv argparse cannot read (a
missing or unknown flag, ``--trials 0``, an unknown figure or property): the
parser raises the same ``ParseError``.  A value word that starts with ``-``
and a Unicode decimal digit or ``x``, such as ``--offset -3/2`` or
``--line-g -x+2y=3``, is the flag's value, as in ``--offset=-3/2``.
Geometry preconditions exit 3, an internal cross-check failure exits 4, and
a failing check suite exits 1.

Each runner hands its result record to ``_report``, the one place that
decides how a value prints: a point, line or rational as its canonical text
(``textio.format_value``), an absent value as ``-``.  Without ``--json`` that
is ``label: value`` rows.  With ``--json`` it is one result document:
``construction``, ``inputs`` (the scene's fields, echoed in canonical text
form), ``outputs``, ``case`` and ``witnesses``, where a point becomes
``{"x", "y"}`` and rationals are ``p/q`` strings, so the documents are exact
and byte-stable.  A rejected run prints the same envelope with an ``error``
object and the raw input strings.  Stdout is written only by ``_out``, and
both streams only through ``_write``.  A reader that closes stdout early
does not change the exit code; any other failed stdout write exits 2 with
the parse error on stderr.  A failed stderr write changes no exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Dict, List, NoReturn, Optional, Sequence

from . import axis_projection as ap
from . import double_projection as dp
from . import parallelogram as pg
from . import parallelogram_axis as pga
from . import textio
from .errors import GeomError, InconsistentError, ParseError
from .figures import (
    FIGURES,
    Viewport,
    axis_projection_elements,
    axis_strip_elements,
    render_figure,
    render_svg,
    strip_elements,
    transversal_elements,
)
from .kernel import Point
from .textio import field_flag, format_scalar, format_value


# ------------------------------------------------------------- output

def _write(stream, text: str) -> Optional[OSError]:
    """Write ``text`` to ``stream``, ``sys.stdout`` or ``sys.stderr``, as
    UTF-8 whatever its encoding (an SVG declares UTF-8); a ``StringIO`` takes
    the text.  If that fails, the stream is pointed at the null device, so the
    interpreter's final flush cannot fail either, and the error is returned.
    A stream the interpreter could not open is ``None`` and takes nothing."""
    if stream is None:
        return None
    try:
        if hasattr(stream, "buffer"):
            stream.flush()
            stream.buffer.write(text.encode("utf-8", stream.errors))
        else:
            stream.write(text)
        stream.flush()
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return err
    return None


def _out(text: str) -> None:
    """Write ``text`` to stdout.  A reader that has closed it ends the output
    quietly, and the run goes on to return its own exit code.  Any other
    failure, such as a full device, is reported on stderr, also under
    ``--json``, and exits 2 at once."""
    err = _write(sys.stdout, text)
    if err is not None and not isinstance(err, BrokenPipeError):
        reason = err.strerror or err
        _write(sys.stderr, f"error[{ParseError.code}]: cannot write stdout: {reason}\n")
        sys.exit(2)


def _json(value):
    """The JSON form of a record value: a point becomes ``{"x", "y"}``, a
    dict recurses, and strings, bools and None pass through."""
    if isinstance(value, Point):
        return {"x": format_scalar(value.x), "y": format_scalar(value.y)}
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, bool)):
        return value
    return format_value(value)


def _text(value) -> str:
    if value is None:
        return "-"
    return value if isinstance(value, str) else format_value(value)


def _report(
    args, scene, outputs: dict, case: str, witnesses: dict, rows, title: str, elements
) -> int:
    """Print one construction result: the ``--json`` document, or the
    ``label: value`` text rows.  The inputs echo the scene's fields, whose
    names are the document's keys.  ``elements`` builds the figure, and is
    called only when an SVG is written."""
    # a bad viewport flag prints only its error, with or without --svg-out
    viewport = _viewport(args, Viewport())
    if args.svg_out:
        _write_svg_out(args.svg_out, render_svg(title, elements(), viewport))
    if args.json:
        inputs = {f.name: getattr(scene, f.name) for f in dataclasses.fields(scene)}
        doc = {
            "construction": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "case": case,
            "witnesses": witnesses,
        }
        _out(json.dumps(_json(doc), indent=2, sort_keys=True) + "\n")
    else:
        _out("".join(f"{label}: {_text(value)}\n" for label, value in rows))
    return 0


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


def _viewport(args, default: Viewport) -> Viewport:
    parsed = {}
    for f in dataclasses.fields(Viewport):
        raw = getattr(args, f.name)
        if raw is not None:
            parsed[f.name] = _pixels(f.name, raw) if f.type == "int" else _read(f, raw)
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

def _cmd_projection(args, scene: dp.TransversalScene) -> int:
    horizontal = args.command == "phor"
    w = dp.p_hor(scene) if horizontal else dp.p_ver(scene)
    case = w.case_tag.value
    witnesses = {f.name: getattr(w, f.name) for f in dataclasses.fields(w) if f.name != "point"}
    witnesses["case_tag"] = case
    shift_s, shift_t = ("a_s", "a_t") if horizontal else ("b_s", "b_t")
    rows = [
        ("case", case), ("p", w.point), ("s", w.s), ("t", w.t),
        (shift_s, w.a_or_b_s), (shift_t, w.a_or_b_t),
        ("rho", w.rho), ("alpha", w.alpha), ("beta", w.beta),
    ]
    return _report(
        args, scene, {"p": w.point}, case, witnesses, rows,
        "Distinguished point on a transversal",
        lambda: transversal_elements(scene, [w], mark_intercepts=True),
    )


def _cmd_construct_p(args, scene: ap.AxisScene) -> int:
    r = ap.construct_p(scene)
    checks = ap.verify_p2(r)
    outputs = {
        name: getattr(r, name) for name in ("p", "axis_p", "s_axis", "t_axis", "s_p", "t_p")
    }
    witnesses = {name: getattr(r, name) for name in ("s", "t", "z_s", "z_t")}
    witnesses["checks"] = checks
    case = r.case_tag.value
    rows = [("case", case), *outputs.items(), ("verified", f"{sum(checks.values())}/{len(checks)}")]
    return _report(
        args, scene, outputs, case, witnesses, rows,
        "Construction relative to an axis", lambda: axis_projection_elements(r),
    )


def _report_parallelogram(args, record, label: str, value, title: str, elements) -> int:
    """The shared report of ``nu``, ``mu`` and ``nu-general``, which all
    build one ``AxisParallelogram``; its inputs echo the record's scene."""
    case = "collapsed" if record.t_bar == record.neg_s_bar else "main"
    corners = ("s_bar", "t_bar", "neg_s_bar", "neg_t_bar")
    witnesses = {name: getattr(record, name) for name in ("s", "t", *corners, "connecting_line")}
    rows = [
        (label, value), *((name, witnesses[name]) for name in corners),
        ("connecting", record.connecting_line), ("case", case),
    ]
    return _report(args, record.scene, {label: value}, case, witnesses, rows, title, elements)


def _cmd_strip(args, scene: pg.StripScene) -> int:
    swap = args.command == "mu"
    w = pg.mu_witness(scene) if swap else pg.build_witness(scene)
    return _report_parallelogram(
        args, w, args.command, w.nu, "Parallelogram intercept",
        lambda: strip_elements(scene, w, "μ" if swap else "ν"),
    )


def _cmd_nu_general(args, scene: pga.AxisStripScene) -> int:
    r = pga.nu_general(scene)
    return _report_parallelogram(
        args, r, "nu_point", r.nu_point, "Parallelogram intercept on an axis",
        lambda: axis_strip_elements(r),
    )


# subcommand -> (scene type, runner, help line); each scene field is a flag
_CONSTRUCTIONS = {
    "phor": (dp.TransversalScene, _cmd_projection,
             "point whose horizontal shifts land on the two origin rays"),
    "pver": (dp.TransversalScene, _cmd_projection,
             "point whose vertical shifts land on the two origin rays"),
    "construct-p": (ap.AxisScene, _cmd_construct_p,
                    "the same point relative to an arbitrary axis and center"),
    "nu": (pg.StripScene, _cmd_strip, "x-axis intercept of the parallelogram's connecting line"),
    "mu": (pg.StripScene, _cmd_strip, "the coordinate-swapped variant of nu"),
    "nu-general": (pga.AxisStripScene, _cmd_nu_general,
                   "the parallelogram intercept relative to an arbitrary axis"),
}

# a field's type (a name: annotations are postponed) -> its flag's metavar
# and its textio reader, looked up by name when called so that a profiler's
# wrapper around the reader sees the call
_READERS = {
    "Line": ("SPEC", "parse_line_spec"),
    "Point": ("POINT", "parse_point"),
    "Fraction": ("R", "parse_scalar"),
}

_FIELD_HELP = {
    "g_s": "first base line",
    "g_t": "second base line",
    "l": "transversal line",
    "axis": "reference axis",
    "g": "source line",
    "p": "target line (parallel to the source)",
    "origin": "projection center on the axis, e.g. '(3, 0)'",
    "epsilon": "half-spread, e.g. '4' or '1/2'",
    "offset": "signed shift along the axis direction",
    "sample": "sample point on the source line",
}


def _read(field: dataclasses.Field, raw: str):
    return getattr(textio, _READERS[field.type][1])(raw)


def _run_construction(args) -> int:
    scene_type, run, _ = _CONSTRUCTIONS[args.command]
    fields = dataclasses.fields(scene_type)
    return run(args, scene_type(**{f.name: _read(f, getattr(args, f.name)) for f in fields}))


def _cmd_check(args) -> int:
    from .checks import run_all, summarize
    reports = run_all(args.seed, args.trials, args.only)
    _out(summarize(reports) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_figure(args) -> int:
    # the flags lay over the figure's own viewport, read before it is built
    svg = render_figure(args.name, _viewport(args, FIGURES[args.name][2]))
    if args.svg_out:
        _write_svg_out(args.svg_out, svg)
    else:
        _out(svg)
    return 0


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """An argument parser that reports an unreadable argv as a ``ParseError``
    instead of printing its usage and exiting, and prints help through ``_out``."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {message}", 0, f"the arguments of '{self.prog} --help'")

    def print_help(self, file=None) -> None:
        _out(self.format_help())


def _trials(text: str) -> int:
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be positive, not {trials}")
    return trials


def _property_names(text: str) -> List[str]:
    from .checks import PROPERTY_NAMES
    names = list(dict.fromkeys(name.strip() for name in text.split(",") if name.strip()))
    unknown = sorted(set(names) - set(PROPERTY_NAMES))
    if unknown or not names:
        # an empty list would pass on zero evidence
        problem = f"unknown properties: {', '.join(unknown)}" if unknown else "names no property"
        raise argparse.ArgumentTypeError(f"{problem}; available: {', '.join(PROPERTY_NAMES)}")
    return names


def _add_viewport_flags(sub: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(Viewport):
        unit = "in pixels" if f.type == "int" else "(rational)"
        metavar = "PX" if f.type == "int" else _READERS[f.type][0]
        sub.add_argument(field_flag(f.name, False), metavar=metavar, help=f"viewport {f.name} {unit}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactplane",
        description="Exact rational constructions on parallel lines and transversals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (scene_type, _, blurb) in _CONSTRUCTIONS.items():
        sub = commands.add_parser(name, help=blurb)
        for f in dataclasses.fields(scene_type):
            example = ", e.g. 'y=2*x+4', 'x=-2' or '2x+3y=1/2'" if f.type == "Line" else ""
            sub.add_argument(
                field_flag(f.name, f.type == "Line"), dest=f.name, metavar=_READERS[f.type][0],
                required=True, help=_FIELD_HELP[f.name] + example,
            )
        sub.add_argument("--json", action="store_true", help="print a JSON result document")
        sub.add_argument("--svg-out", metavar="PATH", help="also render the scene as SVG")
        _add_viewport_flags(sub)
        sub.set_defaults(handler=_run_construction)

    sub = commands.add_parser("check", help="run the seeded property suite")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--trials", type=_trials, default=100, help="trials per property (default 100)")
    sub.add_argument(
        "--only", type=_property_names, metavar="NAMES", help="comma-separated property names"
    )
    sub.set_defaults(handler=_cmd_check, json=False)

    sub = commands.add_parser("figure", help="render a built-in figure as SVG")
    figures = sorted(FIGURES)
    sub.add_argument("name", choices=figures, metavar="name", help=f"one of: {', '.join(figures)}")
    sub.add_argument("--svg-out", metavar="PATH", help="write here instead of stdout")
    _add_viewport_flags(sub)
    sub.set_defaults(handler=_cmd_figure, json=False)

    return parser


def _raw_inputs(args) -> Dict[str, str]:
    """The scene fields' flag values as given, once argparse has read them."""
    entry = _CONSTRUCTIONS.get(args.command) if hasattr(args, "handler") else None
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(entry[0])} if entry else {}


def _report_error(args, err: GeomError) -> None:
    # str(err) keeps the position/expected suffix of parse errors
    if getattr(args, "json", False):
        doc = {
            "construction": args.command,
            "inputs": _raw_inputs(args),
            "error": {"code": err.code, "message": str(err)},
        }
        _out(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _write(sys.stderr, f"error[{err.code}]: {err}\n")


def _value_words(argv: Sequence[str]) -> List[str]:
    """``argv`` with each word that starts with ``-`` and a Unicode decimal
    digit (any digit ``textio`` reads) or ``x``, such as ``-3/2``, ``-٣`` or
    ``-x+2y=3``, joined to the ``--flag`` before it as ``--flag=-3/2``:
    argparse takes only a plain negative number for a value, and other such
    words for flags."""
    words: List[str] = []
    for word in argv:
        if words and re.fullmatch(r"--[\w-]+", words[-1]) and re.match(r"-[\dx]", word):
            words[-1] += f"={word}"
        else:
            words.append(word)
    return words


def main(argv: Optional[Sequence[str]] = None) -> int:
    words = _value_words(sys.argv[1:] if argv is None else argv)
    # what an error envelope can tell while argparse has not read the words;
    # argparse takes any prefix of "--json" longer than "--" for it
    command = words[0] if words and not words[0].startswith("-") else None
    wants_json = any(len(word) > 2 and "--json".startswith(word) for word in words)
    args = argparse.Namespace(command=command, json=wants_json)
    try:
        args = build_parser().parse_args(words)
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
