"""Expansions of the argument-scaled Legendre polynomial P_n(lam*x).

Two equivalent coefficient families:

* derivative form:  P_n(lam*x) = sum_k a_k * d^k/dx^k P_{n-k}(x),
  a_k = lam^(n-2k) (lam^2-1)^k / (2^k k!);
* legendre form:    P_n(lam*x) = sum_k b_k * P_{n-2k}(x),
  where each b_k collects the derivative-form contributions through the
  doubly-indexed weights alpha_nki.

alpha_nki is the coefficient of P_{n-2k} in d^(k-i) P_{n-k+i}. It comes
from the closed form of the derivative expansion (see `derivatives`; four
independent routes agree on it), which for k >= 1 reads

    alpha_nki = (2(n-2k)+1) * C(k-1, i) * prod_{t=0}^{k-i-2} (2(n-2k+i) + 3 + 2t)

in integers, so b_k costs O(k) integer work and no table is cached.

k runs over 0 ... floor(n/2) in both forms. Everything is exact for any
rational lam, including lam = 0 (0^0 = 1 keeps the constant term alive, so
P_n(0) is reachable).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

from .polynomials import Poly, differentiate, legendre_bonnet
from .rationals import RationalLike, Record, as_rational, format_rational, parse_rational

__all__ = [
    "FORM_DERIVATIVE",
    "FORM_LEGENDRE",
    "ScalingExpansion",
    "a_coefficient",
    "basis_polynomial",
    "expand_derivative_form",
    "alpha_nki",
    "b_coefficient",
    "b_coefficient_untruncated",
    "expand_legendre_form",
    "expand_legendre_form_untruncated",
    "expansion_basis",
]

FORM_DERIVATIVE = "derivative"
FORM_LEGENDRE = "legendre"


class ScalingExpansion(Record):
    """Coefficient map for one expansion of P_n(lam*x).

    ``coeffs[k]``, k = 0 ... floor(n/2), multiplies d^k P_{n-k} in the
    derivative form and P_{n-2k} in the legendre form (`basis_polynomial`
    builds them). The map is dense: zero entries are kept so every
    admissible k is listed.
    """

    __slots__ = ("lam", "n", "form", "coeffs")
    lam: Fraction
    n: int
    form: str
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.form not in (FORM_DERIVATIVE, FORM_LEGENDRE):
            raise ValueError(f"unknown form {self.form!r}")
        if self.n < 0:
            raise ValueError("degree must be >= 0")
        expected = self.n // 2 + 1
        if len(self.coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(self.coeffs)}")

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.n // 2:
            raise ValueError(f"index k must lie in 0 ... {self.n // 2}")
        return self.coeffs[k]

    def to_json(self) -> dict:
        return {
            "lambda": format_rational(self.lam),
            "n": self.n,
            "form": self.form,
            "coeffs": {str(k): format_rational(c) for k, c in enumerate(self.coeffs)},
        }

    @classmethod
    def from_json(cls, data) -> "ScalingExpansion":
        n = int(data["n"])
        raw = {int(k): parse_rational(c) for k, c in data["coeffs"].items()}
        coeffs = tuple(raw.get(k, Fraction(0)) for k in range(n // 2 + 1))
        return cls(parse_rational(data["lambda"]), n, data["form"], coeffs)


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not 0 <= k <= n // 2:
        raise ValueError(f"index k must lie in 0 ... {n // 2}")


def basis_polynomial(form: str, n: int, k: int) -> Poly:
    """The polynomial ``coeffs[k]`` multiplies in an expansion of P_n(lam*x).

    d^k P_{n-k} in the derivative form, P_{n-2k} in the legendre form.
    """
    _check_nk(n, k)
    if form == FORM_DERIVATIVE:
        return differentiate(legendre_bonnet(n - k), k)
    if form == FORM_LEGENDRE:
        return legendre_bonnet(n - 2 * k)
    raise ValueError(f"unknown form {form!r}")


def expansion_basis(form: str, n: int) -> Tuple[Poly, ...]:
    """`basis_polynomial(form, n, k)` for every k = 0 ... floor(n/2)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return tuple(basis_polynomial(form, n, k) for k in range(n // 2 + 1))


def a_coefficient(lam: RationalLike, n: int, k: int) -> Fraction:
    """Weight of d^k P_{n-k} in P_n(lam*x): lam^(n-2k) (lam^2-1)^k / (2^k k!).

    With lam = p/q this is the integer ratio p^(n-2k) (p^2-q^2)^k / (q^n 2^k k!).
    """
    _check_nk(n, k)
    factor = as_rational(lam)
    p, q = factor.numerator, factor.denominator
    return Fraction(p ** (n - 2 * k) * (p * p - q * q) ** k, q ** n * 2 ** k * factorial(k))


def expand_derivative_form(lam: RationalLike, n: int) -> ScalingExpansion:
    """All derivative-form weights of P_n(lam*x), k = 0 ... floor(n/2).

    The integer ratio of `a_coefficient`, with (p^2-q^2)^k and q^n 2^k k!
    carried from one k to the next.
    """
    factor = as_rational(lam)
    if n < 0:
        raise ValueError("degree must be >= 0")
    p, q = factor.numerator, factor.denominator
    shift = p * p - q * q
    shift_power = 1  # (p^2-q^2)^k
    den = q ** n  # q^n 2^k k!
    coeffs = []
    for k in range(n // 2 + 1):
        coeffs.append(Fraction(p ** (n - 2 * k) * shift_power, den))
        shift_power *= shift
        den *= 2 * (k + 1)
    return ScalingExpansion(factor, n, FORM_DERIVATIVE, tuple(coeffs))


def _alpha_row(n: int, k: int) -> List[int]:
    """alpha_nki(n, k, i) for i = 0 ... k, in integer arithmetic.

    The odd-factor product gains one factor, 2(n-2k+i)+3, per step down
    in i. The i = k entry goes through the same formula (C(k-1, k) = 0)
    rather than being assumed zero.
    """
    if k == 0:
        return [1]
    row = [0] * (k + 1)
    odd_run = 1
    for i in range(k, -1, -1):
        if i <= k - 2:
            odd_run *= 2 * (n - 2 * k + i) + 3
        row[i] = (2 * (n - 2 * k) + 1) * comb(k - 1, i) * odd_run
    return row


def alpha_nki(n: int, k: int, i: int) -> Fraction:
    """Depth-i weight inside the k-th legendre-form coefficient.

    Semantically this is the coefficient of P_{n-2k} in the Legendre
    expansion of d^(k-i) P_{n-k+i}; in particular it is 1 at i = k = 0 and
    0 at i = k >= 1 (the zeroth derivative expands trivially). For k >= 1
    the closed form gives

        alpha_nki = (2(n-2k)+1) * C(k-1, i) * prod_{t=0}^{k-i-2} (2(n-2k+i) + 3 + 2t).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not 0 <= i <= k <= n // 2:
        raise ValueError("indices must satisfy 0 <= i <= k <= floor(n/2)")
    return Fraction(_alpha_row(n, k)[i])


def _b_sum(factor: Fraction, n: int, k: int, top_i: int) -> Fraction:
    """sum_{i=0}^{top_i} a_coefficient(lam, n, k-i) * alpha_nki(n, k, i).

    With lam = p/q every term shares the denominator q^n 2^k k!, so the sum
    runs in integers and one Fraction is built at the end.
    """
    p, q = factor.numerator, factor.denominator
    shift = p * p - q * q
    row = _alpha_row(n, k)
    total = 0
    scale = 1  # 2^i k! / (k-i)!
    for i in range(top_i + 1):
        total += p ** (n - 2 * k + 2 * i) * shift ** (k - i) * scale * row[i]
        scale *= 2 * (k - i)
    return Fraction(total, q ** n * 2 ** k * factorial(k))


def b_coefficient(lam: RationalLike, n: int, k: int) -> Fraction:
    """Weight of P_{n-2k} in P_n(lam*x), summing depths i = 0 ... max(k-1, 0)."""
    _check_nk(n, k)
    return _b_sum(as_rational(lam), n, k, max(k - 1, 0))


def b_coefficient_untruncated(lam: RationalLike, n: int, k: int) -> Fraction:
    """Variant of `b_coefficient` summing depths i = 0 ... k.

    The extra i = k term carries the weight alpha_nki(n, k, k), which is 0
    for every k >= 1, so the two must agree; the test suite proves this over
    the full sweep instead of assuming it.
    """
    _check_nk(n, k)
    return _b_sum(as_rational(lam), n, k, k)


def expand_legendre_form(lam: RationalLike, n: int) -> ScalingExpansion:
    """All legendre-form weights of P_n(lam*x), k = 0 ... floor(n/2)."""
    factor = as_rational(lam)
    if n < 0:
        raise ValueError("degree must be >= 0")
    return ScalingExpansion(
        factor, n, FORM_LEGENDRE, tuple(b_coefficient(factor, n, k) for k in range(n // 2 + 1))
    )


def expand_legendre_form_untruncated(lam: RationalLike, n: int) -> ScalingExpansion:
    """Legendre-form weights using the untruncated depth sum (i up to k)."""
    factor = as_rational(lam)
    if n < 0:
        raise ValueError("degree must be >= 0")
    return ScalingExpansion(
        factor,
        n,
        FORM_LEGENDRE,
        tuple(b_coefficient_untruncated(factor, n, k) for k in range(n // 2 + 1)),
    )
