"""Expansions of the argument-scaled Legendre polynomial P_n(lam*x).

Two equivalent coefficient families:

* derivative form:  P_n(lam*x) = sum_k a_k * d^k/dx^k P_{n-k}(x),
  a_k = lam^(n-2k) (lam^2-1)^k / (2^k k!);
* legendre form:    P_n(lam*x) = sum_k b_k * P_{n-2k}(x),
  b_k = sum_{i<k} a_{k-i} * alpha_nki(n, k, i) (b_0 = a_0): the derivative
  form with each d^j P_{n-j} replaced by its Legendre series.

alpha_nki is the coefficient of P_{n-2k} in d^(k-i) P_{n-k+i}, read from
Doha's closed form (see `derivatives`; four independent routes agree on
it), whose integer kernel has one owner, `_doha_alphas` here:

    alpha_nki = (2(n-2k)+1) * C(k-1, i) * prod_{t=0}^{k-i-2} (2(n-2k+i) + 3 + 2t)

for k >= 1. With lam = p/q, m = n-2k, u = p^2, v = p^2-q^2 and
w_i = 2^i k!/(k-i)! alpha_nki(n, k, i), b_k = p^m S_k / (q^n 2^k k!) with
the integer Horner sum S_k = sum_{i<k} w_i u^i v^(k-i). The public functions
wrap the integer cores `_derivative_form` and `_legendre_form`, which yield
(num, den) pairs; `verify` reads them, and `eval` sums their pairs with the
ints of `_basis_values`. The untruncated variant adds depth k from Doha's k = 0 row.

k runs over 0 ... floor(n/2) in both forms. Everything is exact for any
rational lam, including lam = 0 (0^0 = 1 keeps the constant term alive, so
P_n(0) is reachable). The basis polynomials are `polynomials.expansion_basis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, perm
from typing import Iterable, Iterator, List, Tuple

from .rationals import RationalLike, Record, _parse_index, as_rational, format_rational, parse_rational

__all__ = [
    "FORM_DERIVATIVE",
    "FORM_LEGENDRE",
    "ScalingExpansion",
    "a_coefficient",
    "expand_derivative_form",
    "alpha_nki",
    "b_coefficient",
    "b_coefficient_untruncated",
    "expand_legendre_form",
    "expand_legendre_form_untruncated",
]

FORM_DERIVATIVE = "derivative"
FORM_LEGENDRE = "legendre"


class ScalingExpansion(Record):
    """Coefficient map for one expansion of P_n(lam*x).

    ``coeffs[k]``, k = 0 ... floor(n/2), multiplies d^k P_{n-k} in the
    derivative form and P_{n-2k} in the legendre form
    (`polynomials.expansion_basis` builds them). The map is dense: zero
    entries are kept so every admissible k is listed.
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
        n = _parse_index(data["n"])
        raw = {_parse_index(k): parse_rational(c) for k, c in data["coeffs"].items()}
        if any(not 0 <= k <= n // 2 for k in raw):
            raise ValueError(f"coefficient indices must lie in 0 ... {n // 2}")
        coeffs = tuple(raw.get(k, Fraction(0)) for k in range(n // 2 + 1))
        return cls(parse_rational(data["lambda"]), n, data["form"], coeffs)


def _basis_values(form: str, n: int, x: Fraction, ks: Iterable[int]) -> Iterator[Tuple[int, int, int]]:
    """(k, N, m! t^m) for each k of `ks`, m = n-2k: the basis polynomial of ``coeffs[k]``
    at x = s/t is N / (m! t^m), unreduced. N is from one integer recurrence per form up
    the degrees m: Bonnet's for V_m = m! t^m P_m(x), and for F_m = m! t^m d^k P_{n-k}(x)
    a contiguous relation (DLMF 15.5(ii), 18.9) in steps of 2, with no division."""
    s, t = x.numerator, x.denominator
    s2, t2 = s * s, t * t
    wanted = {n - 2 * k: k for k in ks}  # degree m -> k
    top = max(wanted, default=-1)
    if form == FORM_DERIVATIVE:
        c = (n + 1) // 2  # F_{n%2} = 1 * 3 * ... * (2c-1) s^(n%2), the odd run as (2c)! / (c! 2^c)
        f, f_down = (perm(2 * c, c) >> c) * s ** (n % 2), 0  # F_m, F_{m-2}
        for m in range(n % 2, top + 1, 2):
            if m in wanted:
                yield wanted[m], f, factorial(m) * t ** m
            if m < top:
                f, f_down = ((n + m + 1) * s2 - (2 * m + 1) * t2) * f + m * (m - 1) * t2 * (s2 - t2) * f_down, f
        return
    v, v_down = 1, 0  # V_m, V_{m-1}
    for m in range(top + 1):
        if m in wanted:
            yield wanted[m], v, factorial(m) * t ** m
        if m < top:
            v, v_down = (2 * m + 1) * s * v - m * m * t2 * v_down, v


def _a_rows(lam: Fraction, n_max: int) -> Iterator[List[Tuple[int, int]]]:
    """Rows n = 0 ... n_max of reduced (num, den) pairs a_k, by a_k(n+1) = lam a_k(n)
    plus, at even n = 2k, the new entry a_k(2k) = a_{k-1}(2k-2) (lam^2-1) / (2k).
    lam times a pair cancels only gcd(p, den), never a gcd of two large ints: num
    divides p^(n-2k) (p^2-q^2)^k, so it is prime to q. Every zero entry (all but
    O(1) per row at lam = 0, 1, -1) is one shared `(0, 1)`. `expand_derivative_form`
    is the closed form, the second route."""
    p, q = lam.numerator, lam.denominator
    zero = (0, 1)
    new = (1, 1)  # a_k(2k), k = 0
    row: List[Tuple[int, int]] = []
    for n in range(n_max + 1):
        row = [(p // g * num, q * (den // g)) if p and num else zero
               for num, den in row for g in (gcd(p, den),)]
        if n % 2 == 0:
            row.append(new)
            num, den = new[0] * (p * p - q * q), new[1] * q * q * (n + 2)
            g = gcd(num, den)
            new = (num // g, den // g) if num else zero
        yield row


def _derivative_form(p: int, q: int, n: int) -> Iterator[Tuple[int, int]]:
    """Integer core of the derivative form at lam = p/q: a_k as the unreduced
    pair (p^(n-2k) (p^2-q^2)^k, q^n 2^k k!) for k = 0 ... floor(n/2)."""
    shift_power, den = 1, q ** n
    for k in range(n // 2 + 1):
        yield p ** (n - 2 * k) * shift_power, den
        shift_power, den = shift_power * (p * p - q * q), den * 2 * (k + 1)


def _expansion(lam: RationalLike, n: int, form: str) -> ScalingExpansion:
    """coeffs[k] = num / den for pair k of the integer core of `form`."""
    factor = as_rational(lam)
    if n < 0:
        raise ValueError("degree must be >= 0")
    core = _derivative_form if form == FORM_DERIVATIVE else _legendre_form
    rows = core(factor.numerator, factor.denominator, n)
    return ScalingExpansion(factor, n, form, tuple(Fraction(num, den) for num, den in rows))


def expand_derivative_form(lam: RationalLike, n: int) -> ScalingExpansion:
    """All derivative-form weights of P_n(lam*x), k = 0 ... floor(n/2)."""
    return _expansion(lam, n, FORM_DERIVATIVE)


def a_coefficient(lam: RationalLike, n: int, k: int) -> Fraction:
    """Weight of d^k P_{n-k} in P_n(lam*x): lam^(n-2k) (lam^2-1)^k / (2^k k!)."""
    return expand_derivative_form(lam, n).coefficient(k)


def _doha_alphas(n: int, k: int) -> List[int]:
    """Doha's closed form (see `derivatives`), [] when k > n: the Legendre
    coefficients of d^k P_n as ints, entry i at P_{n-k-2i}. The odd-factor
    product for depth i+1 is the one for depth i times 2(n-k-i)+1, divided
    exactly by 2(n-i)-1. At k = 0 the entries past i = 0 are computed as
    (2m+1) C(i-1, i) = 0, not assumed."""
    entries = (n - k) // 2 + 1
    if k == 0:
        return [1] + [(2 * (n - 2 * i) + 1) * comb(i - 1, i) for i in range(1, entries)]
    odd_run = 1
    for t in range(k - 1):
        odd_run *= 2 * (n - k) + 3 + 2 * t
    alphas = []
    for i in range(entries):
        m = n - k - 2 * i
        alphas.append((2 * m + 1) * comb(k + i - 1, i) * odd_run)
        odd_run = odd_run * (2 * (n - k - i) + 1) // (2 * (n - i) - 1)
    return alphas


def alpha_nki(n: int, k: int, i: int) -> Fraction:
    """Depth-i weight inside the k-th legendre-form coefficient.

    The coefficient of P_{n-2k} in the Legendre expansion of
    d^(k-i) P_{n-k+i}: entry i of the closed-form row of (n-k+i, k-i) in
    `_doha_alphas`, the one owner of Doha's closed form. It is
    1 at i = k = 0; at i = k >= 1 (the zeroth derivative) the kernel
    computes (2(n-2k)+1) * C(k-1, k) = 0 rather than assuming it.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not 0 <= i <= k <= n // 2:
        raise ValueError("indices must satisfy 0 <= i <= k <= floor(n/2)")
    return Fraction(_doha_alphas(n - k + i, k - i)[i])


def _legendre_form(p: int, q: int, n: int) -> Iterator[Tuple[int, int]]:
    """Integer core of the legendre form at lam = p/q: b_k as the unreduced pair
    (p^m S_k, q^n 2^k k!). S_k is a Horner sum in u from i = k-1 down,
    w_{k-1} = 2^(k-1) k! (2m+1), w_{i-1} = w_i i (2m+2i+1) / (2(k-i+1)(k-i)) exact or raising."""
    u, v = p * p, p * p - q * q
    den = q ** n  # q^n 2^k k!
    yield p ** n, den  # b_0 = a_0 = lam^n
    for k in range(1, n // 2 + 1):
        m = n - 2 * k
        den *= 2 * k
        w = 2 ** (k - 1) * factorial(k) * (2 * m + 1)  # w_{k-1}
        total, v_power = 0, 1
        for i in range(k - 1, -1, -1):
            v_power *= v
            total = total * u + w * v_power
            if i:
                w, rem = divmod(w * i * (2 * m + 2 * i + 1), 2 * (k - i + 1) * (k - i))
                if rem:
                    raise ArithmeticError(f"inexact Horner weight {i - 1} for (n, k) = ({n}, {k})")
        yield p ** m * total, den


def expand_legendre_form(lam: RationalLike, n: int) -> ScalingExpansion:
    """All legendre-form weights of P_n(lam*x), k = 0 ... floor(n/2)."""
    return _expansion(lam, n, FORM_LEGENDRE)


def expand_legendre_form_untruncated(lam: RationalLike, n: int) -> ScalingExpansion:
    """Legendre-form weights summing depths i = 0 ... k: b_k plus, for k >= 1, lam^n times
    alpha_nki(n, k, k), entry k of Doha's k = 0 row. That entry is a computed 0, so the
    two forms must agree; the test suite compares them rather than assuming it."""
    b = expand_legendre_form(lam, n).coeffs
    depth_k = [0] + _doha_alphas(n, 0)[1:]  # b_0 = a_0 = lam^n is depth 0 already
    return ScalingExpansion(as_rational(lam), n, FORM_LEGENDRE, tuple(c + b[0] * a for c, a in zip(b, depth_k)))


def b_coefficient(lam: RationalLike, n: int, k: int) -> Fraction:
    """Weight of P_{n-2k} in P_n(lam*x), summing depths i = 0 ... max(k-1, 0)."""
    return expand_legendre_form(lam, n).coefficient(k)


def b_coefficient_untruncated(lam: RationalLike, n: int, k: int) -> Fraction:
    """Variant of `b_coefficient` summing depths i = 0 ... k."""
    return expand_legendre_form_untruncated(lam, n).coefficient(k)
