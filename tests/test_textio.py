import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given

from exactplane import (
    Line,
    ParseError,
    Point,
    format_line,
    format_point,
    format_scalar,
    format_value,
    parse_line_spec,
    parse_point,
    parse_scalar,
)

from conftest import lines, points, rationals


class TestScalars:
    def test_integers_have_no_denominator(self):
        assert format_scalar(Fraction(4)) == "4"
        assert format_scalar(Fraction(-7)) == "-7"

    def test_fractions_keep_reduced_form(self):
        assert format_scalar(Fraction(3, 4)) == "3/4"
        assert format_scalar(Fraction(-10, 4)) == "-5/2"

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_scalar(format_scalar(value)) == value

    def test_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_scalar("3/0")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_scalar("3/4x")
        assert info.value.position == 3

    def test_over_long_literal_is_a_parse_error(self):
        # past Python's int-string digit limit int() itself raises ValueError
        with pytest.raises(ParseError) as info:
            parse_line_spec("y=2x+" + "9" * 5000)
        assert info.value.position == 5
        with pytest.raises(ParseError) as info:
            parse_scalar("1/" + "7" * 5000)
        assert info.value.position == 2

    def test_past_the_int_string_limit_prints_exactly(self):
        # str(int) raises ValueError past 4300 digits; the printer must not
        big = Fraction(7**6000, 3**5000)
        numerator, denominator = format_scalar(big).split("/")
        assert (len(numerator), len(denominator)) == (5071, 2386)
        assert Decimal(numerator) == 7**6000 and Decimal(denominator) == 3**5000
        assert format_scalar(Fraction(-(10**5000))) == "-1" + "0" * 5000
        with pytest.raises(ParseError):  # the parser keeps the limit
            parse_scalar(format_scalar(big))

    def test_digit_int_cannot_read_is_a_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_scalar("3/²")
        assert info.value.position == 2


class TestPoints:
    @given(points)
    def test_round_trip(self, p):
        assert parse_point(format_point(p)) == p

    def test_spaces_are_optional(self):
        assert parse_point("(1/2,-3)") == Point(Fraction(1, 2), -3)
        assert parse_point("( 1/2 , -3 )") == Point(Fraction(1, 2), -3)

    def test_error_carries_position_and_expectation(self):
        with pytest.raises(ParseError) as info:
            parse_point("(1/2; 3)")
        assert info.value.position == 4
        assert "','" in info.value.expected
        assert "position 4" in str(info.value)


class TestLineGrammar:
    def test_slope_intercept(self):
        assert parse_line_spec("y=2x+4") == Line(-2, 1, 4)
        assert parse_line_spec("y=2*x+4") == Line(-2, 1, 4)
        assert parse_line_spec("y=-1/2x-3") == Line(Fraction(1, 2), 1, -3)
        assert parse_line_spec("y=x") == Line(-1, 1, 0)
        assert parse_line_spec("y=-x+2") == Line(1, 1, 2)

    def test_constant_forms(self):
        assert parse_line_spec("y=1") == Line(0, 1, 1)
        assert parse_line_spec("x=-2") == Line(1, 0, -2)
        assert parse_line_spec("x=5/3") == Line(1, 0, Fraction(5, 3))

    def test_general_form(self):
        assert parse_line_spec("2x+3y=1/2") == Line(2, 3, Fraction(1, 2))
        assert parse_line_spec("1x-4y=4") == Line(1, -4, 4)
        assert parse_line_spec("2*x+3*y=1/2") == Line(2, 3, Fraction(1, 2))

    def test_one_sign_joins_the_y_term(self):
        # the y term is unsigned after its joining sign, as the offset is
        for text, at in (("2x+-3y=1", 3), ("x--2y=1", 2), ("x++y=1", 2), ("y=2x+-3", 5)):
            with pytest.raises(ParseError) as info:
                parse_line_spec(text)
            assert (info.value.position, info.value.expected) == (at, "a digit")

    def test_general_form_ending_after_its_x_term_asks_for_the_y_term(self):
        for text, at in (("x", 1), ("2x", 2), ("3*x", 3), ("2x ?", 3)):
            with pytest.raises(ParseError) as info:
                parse_line_spec(text)
            assert info.value.position == at
            assert info.value.expected == "'+' or '-' before the y term"

    def test_general_form_canonicalizes(self):
        assert parse_line_spec("4x+6y=2") == parse_line_spec("2x+3y=1")

    def test_degenerate_rejected(self):
        with pytest.raises(ParseError):
            parse_line_spec("0x+0y=1")

    def test_unknown_shape_rejected(self):
        with pytest.raises(ParseError):
            parse_line_spec("z=3")
        with pytest.raises(ParseError):
            parse_line_spec("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_line_spec("x=2y+4")
        assert info.value.position == 3

    @given(lines)
    def test_round_trip(self, l):
        assert parse_line_spec(format_line(l)) == l

    def test_formats_stay_in_grammar(self):
        assert format_line(Line(-2, 1, 4)) == "y=2*x+4"
        assert format_line(Line(0, 1, 1)) == "y=1"
        assert format_line(Line(1, 0, -2)) == "x=-2"
        assert format_line(Line(Fraction(1, 2), 1, -3)) == "y=-1/2*x-3"


def test_format_value_dispatches_on_type():
    assert format_value(Point(Fraction(-5, 2), 1)) == format_point(Point(Fraction(-5, 2), 1)) == "(-5/2, 1)"
    assert format_value(Line(-2, 1, 4)) == format_line(Line(-2, 1, 4)) == "y=2*x+4"
    assert format_value(Fraction(3, 4)) == format_scalar(Fraction(3, 4)) == "3/4"


# The grammar's characters plus a tab and two characters str.isdigit accepts:
# '²', which int() cannot read, and the Arabic-Indic '٣', which it reads as 3.
ALPHABET = "0123456789+-*/=xy(), \t²٣"


def _pick(rnd, options):
    """An element of ``options`` chosen with ``rnd``, a ``Random.random``."""
    return options[int(rnd() * len(options))]


def _numeral(rnd):
    text = str(int(rnd() * 100))
    return f"{text}/{int(rnd() * 20)}" if rnd() < 0.3 else text


def _term(rnd, var, signs):
    """``var`` after an optional sign, coefficient and ``*``."""
    coefficient = _pick(rnd, ("", _numeral(rnd), _numeral(rnd) + "*"))
    return _pick(rnd, signs) + coefficient + var


def _form(rnd, kind):
    """A text of one grammar form (0 scalar, 1 point, 2-4 line), spaced at random."""
    signs = ("", "+", "-")
    if kind == 0:
        parts = [_pick(rnd, signs) + _numeral(rnd)]
    elif kind == 1:
        parts = ["(", _pick(rnd, signs) + _numeral(rnd), ",",
                 _pick(rnd, signs) + _numeral(rnd), ")"]
    elif kind == 2:
        parts = [_pick(rnd, "xy"), "=", _pick(rnd, signs) + _numeral(rnd)]
    elif kind == 3:
        parts = ["y", "=", _term(rnd, "x", signs)]
        if rnd() < 0.8:
            parts += [_pick(rnd, "+-"), _numeral(rnd)]
    else:
        parts = [_term(rnd, "x", signs), _pick(rnd, "+-"), _term(rnd, "y", ("",)),
                 "=", _pick(rnd, signs) + _numeral(rnd)]
    return "".join(part + _pick(rnd, ("", "", "", " ", "\t")) for part in parts)


def _mangled(rnd, text):
    """``text`` after one to three character deletions, insertions, overwrites
    or copies."""
    for _ in range(1 + int(rnd() * 3)):
        at = int(rnd() * (len(text) + 1))
        how = rnd()
        if how < 0.25:
            text = text[:at] + text[at + 1:]
        elif how < 0.5:
            text = text[:at] + _pick(rnd, ALPHABET) + text[at:]
        elif how < 0.75:
            text = text[:at] + _pick(rnd, ALPHABET) + text[at + 1:]
        else:
            text = text[:at] + text[at:at + 1] + text[at:]
    return text


def _corpus(kinds, seed, size=20_000):
    """``size`` texts: forms of ``kinds`` or of any kind, intact or mangled,
    and random strings over ``ALPHABET``."""
    rnd = random.Random(seed).random
    texts = []
    for _ in range(size):
        how = int(rnd() * 5)
        if how == 4:
            texts.append("".join(_pick(rnd, ALPHABET) for _ in range(int(rnd() * 13))))
            continue
        text = _form(rnd, _pick(rnd, kinds) if how % 2 else int(rnd() * 5))
        texts.append(_mangled(rnd, text) if how >= 2 else text)
    return texts


# sha256 over every (parser, text, outcome); an outcome is the value's repr,
# or the ParseError's type, message, position and expected
PARSER_CORPORA = {
    parse_scalar: ((0,), "9" * 5000),
    parse_point: ((1,), "(1/" + "7" * 5000 + ", 0)"),
    parse_line_spec: ((2, 3, 4), "y=" + "9" * 5000 + "x+1"),
}
PARSER_GOLDEN = "060e66fc206bd0291b19d9aa239d5a4d43032abde3760932ecc470a854c237ac"


def test_parser_outcomes_match_golden_digest():
    digest = hashlib.sha256()
    for parse, (kinds, over_limit) in PARSER_CORPORA.items():
        for text in [*_corpus(kinds, parse.__name__), over_limit]:
            try:
                outcome = repr(parse(text))
            except ParseError as e:
                outcome = (type(e).__name__, str(e), e.position, e.expected)
            digest.update(repr((parse.__name__, text, outcome)).encode())
    assert digest.hexdigest() == PARSER_GOLDEN
