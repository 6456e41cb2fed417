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
