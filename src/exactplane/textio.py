"""Parsing and printing of scalars, points, and lines.

Input grammar (whitespace is free between tokens, ``*`` is optional between a
coefficient and its variable):

    scalar  :=  ['+'|'-'] digits [ '/' digits ]
    point   :=  '(' scalar ',' scalar ')'
    line    :=  'x' '=' scalar
             |  'y' '=' scalar
             |  'y' '=' scalar ['*'] 'x' ('+'|'-') unsigned-scalar
             |  scalar ['*'] 'x' ('+'|'-') unsigned-scalar ['*'] 'y' '=' scalar

A bare ``x`` term may omit its coefficient ("y=x+2" means slope 1, "y=-x+2"
slope -1); printers always emit an explicit coefficient.  All printers emit
text the parsers map back to the identical value, with one exception: an
integer part over the interpreter's int-string limit (4300 digits) still
prints exactly, but the parsers reject it like any over-long literal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .kernel import Line, Point, exact_str

# "n" or "p/q", exact at any size
format_scalar = exact_str


def format_point(p: Point) -> str:
    return f"({format_scalar(p.x)}, {format_scalar(p.y)})"


def format_line(l: Line) -> str:
    """Canonical text for a line; vertical, horizontal, or slope form."""
    if l.is_vertical:
        return f"x={format_scalar(l.x_intercept())}"
    if l.is_horizontal:
        return f"y={format_scalar(l.y_intercept())}"
    slope = format_scalar(l.slope())
    offset = l.y_intercept()
    sign = "-" if offset < 0 else "+"
    return f"y={slope}*x{sign}{format_scalar(abs(offset))}"


def format_value(value) -> str:
    """Canonical text of a Point, a Line or a rational."""
    if isinstance(value, Point):
        return format_point(value)
    if isinstance(value, Line):
        return format_line(value)
    return format_scalar(value)


def field_flag(name: str, is_line: bool) -> str:
    """The CLI flag of a scene field: ``--line-<name>`` for a line and
    ``--<name>`` otherwise, with ``_`` written as ``-``."""
    flag = name.replace("_", "-")
    return f"--line-{flag}" if is_line else f"--{flag}"


class _Scanner:
    """Cursor over the raw text; positions in errors index the original string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self, ch: str, expected: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"unexpected {self._describe()}", self.pos, expected)
        self.pos += 1

    def _describe(self) -> str:
        if self.pos >= len(self.text):
            return "end of input"
        return f"character {self.text[self.pos]!r}"

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self) -> None:
        if not self.at_end():
            raise ParseError(
                f"unexpected {self._describe()}", self.pos, "end of input"
            )

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"unexpected {self._describe()}", self.pos, "a digit")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # over the interpreter's int-string digit limit, or a digit
            # such as '²' that int() does not read
            raise ParseError(
                f"unreadable {self.pos - start}-character numeric literal",
                start,
                "decimal digits within the int-string length limit",
            ) from None

    def unsigned_scalar(self) -> Fraction:
        self.skip_ws()
        numerator = self.digits()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            slash = self.pos
            denominator = self.digits()
            if denominator == 0:
                raise ParseError("zero denominator", slash, "a nonzero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def sign(self) -> int:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -1
        if ch == "+":
            self.pos += 1
        return 1

    def scalar(self) -> Fraction:
        return self.sign() * self.unsigned_scalar()

    def maybe_star(self) -> None:
        if self.peek() == "*":
            self.pos += 1


def parse_scalar(text: str) -> Fraction:
    sc = _Scanner(text)
    value = sc.scalar()
    sc.expect_end()
    return value


def parse_point(text: str) -> Point:
    sc = _Scanner(text)
    sc.take("(", "'('")
    x = sc.scalar()
    sc.take(",", "','")
    y = sc.scalar()
    sc.take(")", "')'")
    sc.expect_end()
    return Point(x, y)


def _coefficient_then_var(sc: _Scanner, var: str) -> Fraction:
    """``<r>*var``, ``<r>var``, ``var``, ``-var`` starting at the cursor."""
    ch = sc.peek()
    if ch == var:
        sc.pos += 1
        return Fraction(1)
    sign = sc.sign()
    if sc.peek() == var:
        sc.pos += 1
        return Fraction(sign)
    coeff = sign * sc.unsigned_scalar()
    sc.maybe_star()
    sc.take(var, f"'{var}'")
    return coeff


def parse_line_spec(text: str) -> Line:
    """Parse any grammar form into a canonical Line."""
    sc = _Scanner(text)
    head = sc.peek()
    if head == "x":
        mark = sc.pos
        sc.pos += 1
        if sc.peek() == "=":
            sc.pos += 1
            value = sc.scalar()
            sc.expect_end()
            return Line(1, 0, value)
        sc.pos = mark  # fall through: "x+2y=3" style general form
    if head == "y":
        mark = sc.pos
        sc.pos += 1
        if sc.peek() == "=":
            sc.pos += 1
            return _parse_slope_form(sc)
        sc.pos = mark
    return _parse_general_form(sc)


def _parse_slope_form(sc: _Scanner) -> Line:
    # After "y=": either a lone constant, or slope*x then a signed offset.
    mark = sc.pos
    if sc.peek() in "+-" or sc.peek().isdigit():
        try:
            value = sc.scalar()
        except ParseError:
            sc.pos = mark  # a bare sign starts a slope term, e.g. "y=-x+2"
        else:
            if sc.at_end():
                return Line(0, 1, value)
            sc.pos = mark
    slope = _coefficient_then_var(sc, "x")
    if sc.at_end():
        return Line(-slope, 1, 0)
    ch = sc.peek()
    if ch not in "+-":
        raise ParseError(
            f"unexpected {sc._describe()}", sc.pos, "'+' or '-' before the offset"
        )
    offset = sc.scalar()
    sc.expect_end()
    return Line(-slope, 1, offset)


def _parse_general_form(sc: _Scanner) -> Line:
    a = _coefficient_then_var(sc, "x")
    ch = sc.peek()
    if ch not in "+-":
        raise ParseError(
            f"unexpected {sc._describe()}", sc.pos, "'+' or '-' before the y term"
        )
    b_sign = sc.sign()
    b = b_sign * _coefficient_then_var(sc, "y")
    sc.take("=", "'='")
    c = sc.scalar()
    sc.expect_end()
    if a == 0 and b == 0:
        raise ParseError(
            "degenerate line", 0, "a nonzero coefficient on x or y"
        )
    return Line(a, b, c)
