"""Parsing and printing of scalars, points, and lines.

Input grammar:

    scalar    :=  ['+'|'-'] unsigned
    unsigned  :=  digits [ '/' digits ]
    coeff     :=  [ unsigned ['*'] ]
    point     :=  '(' scalar ',' scalar ')'
    line      :=  'x' '=' scalar
               |  'y' '=' scalar
               |  'y' '=' ['+'|'-'] coeff 'x' [ ('+'|'-') unsigned ]
               |  ['+'|'-'] coeff 'x' ('+'|'-') coeff 'y' '=' scalar

So the slope form's offset is optional, a bare or negated ``x`` needs no
coefficient ("y=x" is slope 1, "y=-x+2" slope -1), the ``*`` is optional, and
a leading '+' is allowed; exactly one sign joins the offset or the y term.
Whitespace may go between any two tokens, but not inside ``p/q``.  A digit is
any Unicode decimal digit ("x=٣" is "x=3"); a numeral holding another
``str.isdigit`` character such as ``²``, or over the interpreter's int-string
limit (4300 digits), is a parse error.  Printers always emit an explicit
coefficient, and the parsers map all printed text back to the identical
value, except an integer part over that limit, which prints exactly.
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

    def peek(self) -> str:
        """The next character past any whitespace ("" at the end), which the
        cursor moves up to."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def accept(self, ch: str) -> bool:
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def error(self, expected: str) -> ParseError:
        found = self.text[self.pos : self.pos + 1]
        found = f"character {found!r}" if found else "end of input"
        return ParseError(f"unexpected {found}", self.pos, expected)

    def take(self, ch: str, expected: str) -> None:
        if not self.accept(ch):
            raise self.error(expected)

    def expect_end(self) -> None:
        if self.peek():
            raise self.error("end of input")

    def digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("a digit")
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
        self.peek()  # no whitespace inside "p/q", but some may come before
        numerator = self.digits()
        if self.text.startswith("/", self.pos):
            self.pos += 1
            slash = self.pos
            denominator = self.digits()
            if denominator == 0:
                raise ParseError("zero denominator", slash, "a nonzero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def sign(self) -> int:
        if self.accept("-"):
            return -1
        self.accept("+")
        return 1

    def signed(self, before: str) -> int:
        """The one '+' or '-' that must come before ``before``, an unsigned term."""
        if self.accept("-"):
            return -1
        if self.accept("+"):
            return 1
        raise self.error(f"'+' or '-' before {before}")

    def scalar(self) -> Fraction:
        return self.sign() * self.unsigned_scalar()

    def term(self, var: str, sign: int) -> Fraction:
        """``sign`` times the coefficient of ``coeff var``."""
        if self.accept(var):
            return Fraction(sign)
        coefficient = sign * self.unsigned_scalar()
        self.accept("*")
        self.take(var, f"'{var}'")
        return coefficient


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


def parse_line_spec(text: str) -> Line:
    """Parse any grammar form into a canonical Line."""
    sc = _Scanner(text)
    head = sc.peek()
    mark = sc.pos
    if head in ("x", "y"):
        sc.pos += 1
        if sc.accept("="):
            if head == "y":
                return _parse_slope_form(sc)
            value = sc.scalar()
            sc.expect_end()
            return Line(1, 0, value)
        sc.pos = mark  # the general form, as in "x+2y=3"
    a = sc.term("x", sc.sign())
    b = sc.term("y", sc.signed("the y term"))
    sc.take("=", "'='")
    c = sc.scalar()
    sc.expect_end()
    if a == 0 and b == 0:
        raise ParseError("degenerate line", 0, "a nonzero coefficient on x or y")
    return Line(a, b, c)


def _parse_slope_form(sc: _Scanner) -> Line:
    # After "y=": a constant, or a slope term and an optional signed offset;
    # a numeral is the constant only if nothing follows it.
    sign = sc.sign()
    if sc.accept("x"):
        slope = Fraction(sign)
    else:
        slope = sign * sc.unsigned_scalar()
        if not sc.peek():
            return Line(0, 1, slope)
        sc.accept("*")
        sc.take("x", "'x'")
    offset = sc.signed("the offset") * sc.unsigned_scalar() if sc.peek() else 0
    sc.expect_end()
    return Line(-slope, 1, offset)
