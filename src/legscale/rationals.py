"""Exact rational scalars and the combinatorial primitives built on them.

Every coefficient in this package is a `fractions.Fraction`; no floating
point enters any exact computation. Half-integer arguments such as n - 1/2
are ordinary Fractions, so falling factorials work uniformly at integer and
half-integer points.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

__all__ = [
    "Rational",
    "RationalLike",
    "as_rational",
    "parse_rational",
    "format_rational",
    "falling_factorial",
    "rising_factorial",
    "binomial",
]

# The sole scalar type for exact paths.
Rational = Fraction

RationalLike = Union[Fraction, int, str]

# ASCII digits only: `\d` and int() also accept other Unicode digits.
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into a Fraction.

    Accepts the canonical form ("-3/4", "5/1") and the shortened integer
    form ("5"). Anything else, including decimals, is rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p/q", shortened to "p" when the denominator is 1."""
    q = as_rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def falling_factorial(x: RationalLike, n: int) -> Fraction:
    """x*(x-1)*...*(x-n+1); the empty product 1 when n = 0."""
    if n < 0:
        raise ValueError("falling_factorial requires n >= 0")
    base = as_rational(x)
    out = Fraction(1)
    for step in range(n):
        out *= base - step
    return out


def rising_factorial(a: RationalLike, j: int) -> Fraction:
    """a*(a+1)*...*(a+j-1); the empty product 1 when j = 0.

    Vanishes whenever a is a nonpositive integer with -a < j, which is what
    truncates every terminating series in this package.
    """
    if j < 0:
        raise ValueError("rising_factorial requires j >= 0")
    base = as_rational(a)
    out = Fraction(1)
    for step in range(j):
        out *= base + step
    return out


def binomial(n: int, k: int) -> Fraction:
    """n-choose-k as an exact Fraction; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n, k >= 0")
    if k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))
