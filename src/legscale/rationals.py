"""Exact rational scalars at the package's edges: parsing, printing and
coercion of `fractions.Fraction`, and the immutable record base of the
value types. No floating point enters any exact computation.

Inside, the work runs on ints: a `Poly` holds int numerators over one
denominator, and the closed forms yield ints or reduced pairs. No other
module calls `falling_factorial`, `rising_factorial` or `binomial`; they stay
public Fraction helpers because the benchmark's tracer looks them up.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Dict, Union

__all__ = [
    "Record",
    "RationalLike",
    "as_rational",
    "parse_rational",
    "format_rational",
    "falling_factorial",
    "rising_factorial",
    "binomial",
]

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
    if den and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den or 1))


def _parse_index(value: Union[int, str]) -> int:
    """An index from an int, or from text by `parse_rational`'s ASCII-digit rule,
    which `cli`'s integer flags read too: int() reads "1_0", "\u0663", 2.7 as 10, 3, 2."""
    if not isinstance(value, str):
        return operator.index(value)
    if "/" in value or not _RATIONAL_RE.match(value.strip()):
        raise ValueError(f"not an integer index: {value!r}")
    return int(value)


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


class Record:
    """Base of the package's immutable value records.

    A slotted stand-in for a frozen dataclass, which would import
    `dataclasses` (and through it `inspect` and `ast`) in every process. A
    subclass lists its fields in order in ``__slots__`` (its annotations
    document their types) and may map trailing fields to zero-argument
    factories in ``_defaults``. Fields are set from positional or keyword
    arguments, then ``__post_init__`` validates them. Records compare and
    hash as the tuple of their fields, refuse assignment, pickle, and print
    as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults: Dict[str, Callable[[], object]] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: Dict[str, object]) -> tuple:
        """Field values in order from positional, keyword and default values."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                values[name] = cls._defaults[name]()
        return tuple(values[name] for name in names)

    def __post_init__(self) -> None:
        """Check the fields; the base accepts any values."""

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _frozen(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
