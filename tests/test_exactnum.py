"""Gaussian-rational arithmetic against Python's Fraction/complex and a
Fraction-pair reference model."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from lvset.exactnum import GQ, ONE, ZERO, format_entry, format_rational, gq, parse_entry
from lvset.projections import proj_from_span, projection_to_json


rationals = st.fractions(max_denominator=50)


@st.composite
def gaussians(draw):
    return GQ(draw(rationals), draw(rationals))


def to_complex(x: GQ) -> complex:
    return complex(x.re) + 1j * complex(x.im)


@given(gaussians(), gaussians())
def test_add_mul_match_complex(a, b):
    assert to_complex(a + b) == pytest.approx(to_complex(a) + to_complex(b))
    assert to_complex(a * b) == pytest.approx(to_complex(a) * to_complex(b))
    assert to_complex(a - b) == pytest.approx(to_complex(a) - to_complex(b))


@given(gaussians())
def test_conjugate_involution(a):
    assert a.conj().conj() == a
    prod = a * a.conj()
    assert prod.im == 0
    assert prod.re >= 0


@given(gaussians(), gaussians())
def test_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert (a * b) / b == a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_exactness_no_drift():
    # a third summed three times is exactly one, never 0.9999...
    third = gq(Fraction(1, 3))
    assert third + third + third == ONE


@given(gaussians())
def test_entry_format_round_trip(a):
    assert parse_entry(format_entry(a)) == a


def test_entry_parse_forms():
    assert parse_entry("1/2") == gq(Fraction(1, 2))
    assert parse_entry("-3") == gq(-3)
    assert parse_entry("2i") == GQ(Fraction(0), Fraction(2))
    assert parse_entry("1+i") == GQ(Fraction(1), Fraction(1))
    assert parse_entry("1/2-2/3i") == GQ(Fraction(1, 2), Fraction(-2, 3))


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-7, 3)) == "-7/3"


def test_random_field_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a = GQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        c = GQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == ZERO


# Reference model: a Gaussian rational as a pair of Fractions, with the
# textbook formulas. The triple form must agree with it exactly.

def pair(x: GQ) -> tuple:
    return (x.re, x.im)


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def assert_canonical(x: GQ):
    a, b, d = x._t
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    assert Fraction(a, d) == x.re and Fraction(b, d) == x.im


@given(gaussians(), gaussians())
def test_operators_match_fraction_pair_model_exactly(a, b):
    x, y = pair(a), pair(b)
    for got, want in ((a + b, ref_add(x, y)), (a - b, ref_sub(x, y)),
                      (a * b, ref_mul(x, y)), (-a, (-x[0], -x[1])),
                      (a.conj(), (x[0], -x[1]))):
        assert pair(got) == want
        assert_canonical(got)
    assert a.abs_sq() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(a.abs_sq(), Fraction)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        q = a / b
        assert pair(q) == ref_div(x, y)
        assert_canonical(q)


def test_canonical_form():
    assert ZERO._t == (0, 0, 1)
    assert (GQ(Fraction(1, 3), -2) - GQ(Fraction(1, 3), -2))._t == (0, 0, 1)
    assert GQ(Fraction(2, 4), Fraction(3, 6))._t == (1, 1, 2)
    assert GQ(Fraction(1, 6), Fraction(-1, 4))._t == (2, -3, 12)
    assert GQ("-3/6", "2")._t == (-1, 4, 2)
    # one value reached by several routes: equal fields, equal hashes
    half = [GQ(Fraction(1, 2)), GQ("2/4"), ONE / GQ(2),
            GQ(Fraction(1, 4)) + GQ(Fraction(1, 4)),
            GQ(1, 1) * GQ(Fraction(1, 4), Fraction(-1, 4)),
            GQ(Fraction(3, 2), 5) - GQ(1, 5)]
    for x in half:
        assert_canonical(x)
        assert x._t == (1, 0, 2)
        assert x == half[0] and hash(x) == hash(half[0])
    assert len(set(half)) == 1
    assert GQ(0, 1) != GQ(1) and GQ(1, 1) != GQ(1, -1)


def test_constructor_and_parts_stay_fractions():
    x = GQ("3/6", Fraction(-2, 3))
    assert x.re == Fraction(1, 2) and x.im == Fraction(-2, 3)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert GQ(7).re == 7 and GQ(7).im == 0
    assert complex(GQ(Fraction(1, 3), Fraction(-2, 7))) == complex(1 / 3, -2 / 7)


def test_repr_unchanged():
    assert repr(GQ(Fraction(1, 2))) == "GQ(1/2)"
    assert repr(GQ(Fraction(1, 2), Fraction(-1, 3))) == "GQ(1/2, -1/3)"
    assert repr(GQ(3)) == "GQ(3)"
    assert repr(GQ(0, 1)) == "GQ(0, 1)"
    assert repr(ZERO) == "GQ(0)"


def test_equality_with_other_types_and_truth():
    assert GQ(1).__eq__(1) is NotImplemented
    assert GQ(1) != 1 and not (GQ(0) == 0)
    assert not ZERO and ZERO.is_zero()
    assert GQ(0, Fraction(1, 9)) and not GQ(0, Fraction(1, 9)).is_zero()


def test_immutable():
    x = GQ(Fraction(1, 2), 3)
    for name, value in (("re", Fraction(1)), ("im", Fraction(0)), ("_t", (1, 0, 1)),
                        ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x._t
    assert x._t == (1, 6, 2)


def test_projection_json_pinned():
    # literal captured from the Fraction-pair implementation
    p = proj_from_span([(GQ(1), GQ(Fraction(1, 2), -1), GQ(0, Fraction(2, 3))),
                        (GQ(Fraction(-1, 3)), GQ(2), GQ(1, 1))], 3)
    assert projection_to_json(p) == [
        ["2365/4183", ["-240/4183", "1188/4183"], ["-1251/4183", "-1125/4183"]],
        [["-240/4183", "-1188/4183"], "3375/4183", ["570/4183", "-966/4183"]],
        [["-1251/4183", "1125/4183"], ["570/4183", "966/4183"], "2626/4183"]]
