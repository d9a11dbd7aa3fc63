"""Exact Gaussian-rational scalars: (a + b*i)/d as one reduced integer triple.

Arithmetic runs on Python ints and reduces each result once, so no Fraction
objects are built on the hot path; `.re` and `.im` build Fractions on demand.
"""

from __future__ import annotations

import re

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class GaussianRational:
    """An exact complex scalar a + bi with rational a, b. Immutable.

    Stored as integers (a, b, d) meaning (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1; this canonical form makes equal values have equal
    triples, so `==` and `hash` compare the triple.
    """

    __slots__ = ("_t",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re, im = _frac(re), _frac(im)
        # over the lcm of the two reduced denominators the triple is already coprime
        d1, d2 = re.denominator, im.denominator
        d = d1 // gcd(d1, d2) * d2
        _set(self, (re.numerator * (d // d1), im.numerator * (d // d2), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        return _make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw(-a, -b, d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, d1 = self._t
        a2, b2, d2 = other._t
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2)
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def conj(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw(a, -b, d)

    def abs_sq(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._t == _ZERO_TRIPLE

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __bool__(self) -> bool:
        return self._t != _ZERO_TRIPLE

    def __repr__(self):
        if self._t[1] == 0:
            return f"GQ({self.re})"
        return f"GQ({self.re}, {self.im})"

    def __complex__(self) -> complex:
        a, b, d = self._t
        return complex(a / d, b / d)


_ZERO_TRIPLE = (0, 0, 1)
_set = GaussianRational._t.__set__
_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already in canonical form."""
    z = _new(GaussianRational)
    _set(z, (a, b, d))
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from any triple with d > 0, reduced once."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


GQ = GaussianRational

ZERO = GQ(0)
ONE = GQ(1)


def gq(re: RationalLike = 0, im: RationalLike = 0) -> GQ:
    return GQ(re, im)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def format_entry(z: GQ):
    """JSON form of one matrix/vector entry: "a/b", or ["a/b", "c/d"] when imaginary."""
    if z.im == 0:
        return format_rational(z.re)
    return [format_rational(z.re), format_rational(z.im)]


_IMAGINARY_ONLY = re.compile(r"^(?P<im>[+-]?(?:\d+(?:/\d+)?)?)i$")
_REAL_PLUS_IMAGINARY = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-](?:\d+(?:/\d+)?)?)i$")


def parse_entry(value) -> GQ:
    """Parse one matrix/vector entry: an int, a rational string "a/b",
    a complex string like "1/2-2/3i" or "i", or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"complex entry must have two components, got {value!r}")
        return GQ(_parse_rational(value[0]), _parse_rational(value[1]))
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        if text.endswith("i"):
            m = _IMAGINARY_ONLY.match(text)
            re_part = Fraction(0)
            if m is None:
                m = _REAL_PLUS_IMAGINARY.match(text)
                if m is None:
                    raise ValueError(f"cannot parse entry {value!r}")
                re_part = Fraction(m.group("re"))
            im_text = m.group("im")
            if im_text in ("", "+"):
                im_part = Fraction(1)
            elif im_text == "-":
                im_part = Fraction(-1)
            else:
                im_part = Fraction(im_text)
            return GQ(re_part, im_part)
    return GQ(_parse_rational(value))


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r} (use \"a/b\" strings or ints)")
