"""Legendre-series expansions of repeated derivatives of P_n.

d^k/dx^k P_n = sum_{i=0}^{floor((n-k)/2)} alpha_{n-k-2i} * P_{n-k-2i}(x)

Four independent routes produce the same alpha set:

* telescoping: unroll d/dx P_m = sum_{m' = m-1, m-3, ...} (2m'+1) P_{m'}
  k times, accumulating coefficients exactly;
* triangular: match coefficients of both sides written as Murphy's
  terminating series in z = (1-x)/2 and solve the triangular system;
* closed recurrence: evaluate each alpha from falling factorials and the
  previously computed alphas (each falling factorial of a half-integer is
  an odd-number product over a power of 2);
* closed form: the Legendre case of Doha's formula for differentiated
  ultraspherical expansions (Comput. Math. Appl. 21 (1991) 115-122). For
  1 <= k <= n and m = n-k-2i every alpha is the integer

      alpha_m = (2m+1) * C(k+i-1, i) * prod_{t=0}^{k-2} (2(n-k-i) + 3 + 2t).

The closed form is the production route; the other three verify it. Its
integer kernel has one owner, `scaling._doha_alphas`, which `scaling` also
composes into the Legendre form. The routes' integer cores, `_telescoping`,
`_triangular` (2^k times the alphas), `_alpha_values` and `_doha_alphas`,
return int lists that `verify` compares directly; the four `deriv_expand_*`
functions wrap them and build one Fraction per output alpha.

`verify`'s derivative pass steps two of its inputs along k: the
telescoping alphas, one `_telescoping_pass` per order, and eq24-rows' left
side, the z-form of d^k P_n, one `_z_step` per order from the substitution
of P_n.

Any disagreement between the routes, or with the formal derivative itself,
signals a bug; the verification module sweeps exactly that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, perm
from typing import List, Mapping, Sequence, Tuple

from .polynomials import LegendreSeries
from .rationals import Record, _parse_index, format_rational, parse_rational
from .scaling import _doha_alphas

__all__ = [
    "DerivExpansion",
    "deriv_expand_telescoping",
    "deriv_expand_triangular",
    "deriv_expand_recurrence",
    "deriv_expand_closed",
    "murphy_deriv_series",
    "alpha_closed_recurrence",
]


class DerivExpansion(Record):
    """Coefficients of d^k/dx^k P_n as a combination of P_{n-k-2i}.

    ``alphas[i]`` multiplies P_{n-k-2i} for i = 0 ... floor((n-k)/2). The
    tuple is empty when k > n, where the derivative is identically zero.
    """

    __slots__ = ("n", "k", "alphas")
    n: int
    k: int
    alphas: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("degree and order must be >= 0")
        expected = 0 if self.k > self.n else (self.n - self.k) // 2 + 1
        if len(self.alphas) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(self.alphas)}")

    @property
    def is_zero(self) -> bool:
        return not self.alphas

    def degree_of(self, i: int) -> int:
        """Legendre degree multiplied by alphas[i]."""
        return self.n - self.k - 2 * i

    def alpha_for_degree(self, m: int) -> Fraction:
        """Coefficient of P_m in the expansion (0 when m does not occur)."""
        offset = self.n - self.k - m
        if m < 0 or offset < 0 or offset % 2:
            return Fraction(0)
        return self.alphas[offset // 2]

    def to_series(self) -> LegendreSeries:
        return LegendreSeries((self.degree_of(i), a) for i, a in enumerate(self.alphas))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alphas": {str(self.degree_of(i)): format_rational(a) for i, a in enumerate(self.alphas)},
        }

    @classmethod
    def from_json(cls, data) -> "DerivExpansion":
        n, k = _parse_index(data["n"]), _parse_index(data["k"])
        by_degree = {_parse_index(m): parse_rational(c) for m, c in data["alphas"].items()}
        degrees = range(n - k, -1, -2)  # n-k, n-k-2, ..., 0 or 1; empty when k > n
        stray = [m for m in by_degree if m not in degrees]
        if stray:
            raise ValueError(f"d^{k} P_{n} has no Legendre degree {stray[0]}")
        return cls(n, k, tuple(by_degree.get(m, Fraction(0)) for m in degrees))


def _check_orders(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("degree and order must be >= 0")


def _telescoping_pass(alphas: List[int], top: int) -> List[int]:
    """One telescoping pass: the alphas at P_{top+1}, P_{top-1}, ... of a
    function in, those of its derivative at P_top, P_{top-2}, ..., 0 or 1 out
    ([] when top < 0).

    d/dx P_m is the sum over m' = m-1, m-3, ... >= 0 of (2m'+1) P_{m'}; the
    degrees of a pass share one parity, so P_t gets (2t+1) times the running
    sum of c_m over m > t: O(n) per pass.
    """
    return [(2 * (top - 2 * i) + 1) * total for i, total in zip(range(top // 2 + 1), accumulate(alphas))]


def _telescoping(n: int, k: int) -> List[int]:
    """The telescoping core: the alphas of d^k P_n as ints ([] when k > n), by k
    passes of `_telescoping_pass` from P_n, the pass to order k leaving degrees
    n-k, n-k-2, ...; a sweep along k runs one pass per order instead.
    """
    alphas = [1] + [0] * (n // 2)  # at P_n, P_{n-2}, ...; k = 0 keeps the computed zeros
    for top in range(n - 1, n - k - 1, -1):
        alphas = _telescoping_pass(alphas, top)
    return alphas


def deriv_expand_telescoping(n: int, k: int) -> DerivExpansion:
    """Expand d^k P_n by applying the single-derivative rewrite k times (`_telescoping`)."""
    _check_orders(n, k)
    return DerivExpansion(n, k, tuple(map(Fraction, _telescoping(n, k) if k <= n else ())))


def _murphy_scaled(n: int, k: int) -> List[int]:
    """2^k times the z^j coefficients of d^k P_n, j = 0 ... n-k, as ints.

    These are integers: P_n has the integer z^j coefficient
    (-1)^j C(n,j) C(n+j,j) and each d/dx is -1/2 d/dz. Each term follows
    from the one before by the ratio of its rising factorials; a division
    that leaves a remainder means the ratio is wrong and raises.
    """
    term = comb(n, k) * perm(n + k, k)  # C(n,k) (n+1)_k
    out: List[int] = []
    for j in range(n - k + 1):
        out.append(term)
        term, rem = divmod(term * (k - n + j) * (n + k + 1 + j), (k + 1 + j) * (j + 1))
        if rem:
            raise ArithmeticError(f"inexact Murphy term {j + 1} for (n, k) = ({n}, {k})")
    return out


def murphy_deriv_series(n: int, k: int) -> Tuple[Fraction, ...]:
    """z-power coefficients of d^k P_n, where z = (1-x)/2.

    Differentiating the terminating Gauss series for P_n k times gives

        d^k/dx^k P_n = C(n,k) (n+1)_k / 2^k
                       * sum_{j=0}^{n-k} (k-n)_j (n+k+1)_j / ((k+1)_j j!) * z^j ;

    the returned tuple holds the exact coefficient of z^j at index j. Each
    term follows from the one before by the ratio of its rising factorials,
    (k-n+j)(n+k+1+j) / ((k+1+j)(j+1)), applied in integers to 2^k times the
    term. Rejects k > n: the derivative is zero there but this series form
    is not defined.
    """
    _check_orders(n, k)
    if k > n:
        raise ValueError("series form requires k <= n")
    scale = 2 ** k
    return tuple(Fraction(t, scale) for t in _murphy_scaled(n, k))


def _z_step(nums: List[int]) -> List[int]:
    """One d/dx on the numerators of a polynomial in powers of z = (1-x)/2 (as
    `verify._z_form` writes it): d/dx = -1/2 d/dz, so c_j becomes
    -(j+1) c_{j+1}, over twice the denominator. O(n)."""
    return [-j * c for j, c in enumerate(nums) if j]


def _triangular(n: int, k: int, z_rows: Sequence[List[int]] | Mapping[int, List[int]]) -> List[int]:
    """The triangular core: 2^k times the alphas of d^k P_n, as ints ([] when k > n).

    Row j equates the z^j coefficients of d^k P_n and of sum_i alpha_i P_{N-2i}
    (N = n-k), P_m's read from `z_rows[m]` (its `_murphy_scaled(m, 0)`, m = N,
    N-2, ...). Rows are consumed from j = N downward: every even offset N-j
    introduces exactly one new unknown, whose pivot (-1)^j C(2j, j), P_j's z^j
    term, is never zero; the odd-offset rows -- redundant by construction --
    are kept as consistency checks instead of being discarded, so a sign or
    index slip surfaces here rather than downstream. Both sides are scaled by
    2^k, so the rows are integers, and every unknown 2^k alpha_i is an int
    (Doha): a division that leaves a remainder raises.
    """
    big_n = n - k
    targets = _murphy_scaled(n, k)
    rows = [z_rows[m] for m in range(big_n, -1, -2)]  # P_m has no z^j past j = m
    scaled: List[int] = []  # 2^k alpha_i
    for j in range(big_n, -1, -1):
        offset = big_n - j
        acc = sum(beta * row[j] for beta, row in zip(scaled, rows))
        if offset % 2 == 0:  # one unknown per even offset
            quotient, rem = divmod(targets[j] - acc, rows[offset // 2][j])
            if rem:
                raise ArithmeticError(f"inexact unknown {offset // 2} for (n, k) = ({n}, {k})")
            scaled.append(quotient)
        elif acc != targets[j]:
            raise ArithmeticError(
                f"redundant row {j} violated for (n, k) = ({n}, {k}): "
                f"{Fraction(acc, 2 ** k)} != {Fraction(targets[j], 2 ** k)}"
            )
    return scaled


def deriv_expand_triangular(n: int, k: int) -> DerivExpansion:
    """Solve the coefficient-matching system in z = (1-x)/2 (`_triangular`)."""
    _check_orders(n, k)
    scaled = _triangular(n, k, {m: _murphy_scaled(m, 0) for m in range(n - k, -1, -2)}) if k <= n else ()
    return DerivExpansion(n, k, tuple(Fraction(beta, 2 ** k) for beta in scaled))


def alpha_closed_recurrence(n: int, k: int, i: int) -> Fraction:
    """Coefficient of P_{n-k-2i} in d^k P_n via the closed recurrence.

    alpha_{n-k-2i} = 2^(k+2i) (n-1/2)^(k_) (n-i)^(i_) (n-k-1/2)^(2i_)
                     / ((2i)^(2i_) (n-1/2)^(i_))
                     - sum_{l=0}^{i-1} (2(n-k-i-l))^(2(i-l)_)
                       / (2(i-l))^(2(i-l)_) * alpha_{n-k-2l}

    with x^(m_) the falling factorial; the sum is empty at i = 0, and each
    ratio in it is the binomial C(2(n-k-i-l), 2(i-l)). Earlier
    alphas are memoized within the evaluation, never across calls.
    """
    _check_orders(n, k)
    if k > n:
        raise ValueError("recurrence defined for k <= n")
    if not 0 <= i <= (n - k) // 2:
        raise ValueError(f"index i must lie in 0 ... {(n - k) // 2}")
    return Fraction(_alpha_values(n, k, i)[i])


def _alpha_values(n: int, k: int, top_i: int) -> List[int]:
    """Alphas for depths 0 ... top_i, as ints; the running list is the memo.

    With O(a, c) = prod_{t<c} (2a-1-2t), the half-integer falling factorial
    (a-1/2)^(c_) is O(a, c) / 2^c, so the lead term is the ratio

        lead_i = 2^i O(n,k) (n-i)^(i_) O(n-k,2i) / ((2i)! O(n,i)),

    its products updated from one depth to the next. Every alpha and so the
    correction is an integer (Doha), so a remainder means a wrong factor.
    """
    odd_nk = 1  # O(n, k)
    for t in range(k):
        odd_nk *= 2 * n - 1 - 2 * t
    odd_lower = 1  # O(n-k, 2i)
    odd_n = 1  # O(n, i)
    even_fact = 1  # (2i)!
    values: List[int] = []
    for i in range(top_i + 1):
        lead, rem = divmod(2 ** i * odd_nk * perm(n - i, i) * odd_lower, even_fact * odd_n)
        if rem:
            raise ArithmeticError(f"inexact lead term {i} for (n, k) = ({n}, {k})")
        correction = sum(comb(2 * (n - k - i - l), 2 * (i - l)) * v for l, v in enumerate(values))
        values.append(lead - correction)
        odd_lower *= (2 * (n - k) - 1 - 4 * i) * (2 * (n - k) - 3 - 4 * i)
        odd_n *= 2 * n - 1 - 2 * i
        even_fact *= (2 * i + 1) * (2 * i + 2)
    return values


def deriv_expand_recurrence(n: int, k: int) -> DerivExpansion:
    """Full expansion assembled from the closed recurrence (`_alpha_values`)."""
    _check_orders(n, k)
    return DerivExpansion(n, k, tuple(map(Fraction, _alpha_values(n, k, (n - k) // 2) if k <= n else ())))


def deriv_expand_closed(n: int, k: int) -> DerivExpansion:
    """Full expansion from Doha's closed form (`scaling._doha_alphas`)."""
    _check_orders(n, k)
    return DerivExpansion(n, k, tuple(map(Fraction, _doha_alphas(n, k) if k <= n else ())))
