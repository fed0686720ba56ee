"""Dense exact polynomials, Legendre constructions, and basis machinery.

Three independent ways of building P_n live here (three-term recurrence;
Rodrigues' formula, the derivation replay's integer core at lam = 1;
terminating Gauss series), together with the formal operations every
identity check rests on: differentiation, argument scaling, the exact inner
product on [-1, 1], projection onto the Legendre basis and the scaling
expansions' bases (both read a walk of the Bonnet rows, not a cache), and
the integer linear combination of polynomials. A `Poly` holds int
numerators over one denominator, so all of these run in Python integers;
Fractions are built only where values leave a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial, gcd, lcm
from operator import index, mul
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from .rationals import RationalLike, _parse_index, as_rational, format_rational, parse_rational
from .scaling import FORM_DERIVATIVE, FORM_LEGENDRE

__all__ = [
    "Poly",
    "LegendreSeries",
    "legendre_bonnet",
    "legendre_rodrigues",
    "legendre_murphy",
    "differentiate",
    "scale_argument",
    "inner_product",
    "project_to_legendre",
    "expansion_basis",
    "to_poly",
]


class Poly:
    """Univariate polynomial with exact rational coefficients, monomial basis.

    Stored as a tuple of int numerators over one positive int denominator:
    index m of the numerators belongs to x^m. Trailing zeros are stripped and
    every operation divides out the gcd of the denominator and all
    numerators once, so each value has exactly one stored form; the zero
    polynomial stores no numerators, denominator 1, and reports degree None.
    Arithmetic, evaluation and the module's formal operations run on these
    integers; `coeffs`, `coefficient`, `to_json` and `repr` build Fractions
    only at that boundary. Instances are immutable.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()) -> None:
        values = [as_rational(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        self._set([v.numerator * (den // v.denominator) for v in values], den)

    def _set(self, nums: List[int], den: int) -> None:
        """Store nums/den in normal form: no trailing zeros, den > 0, gcd 1."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        if den < 0:
            den, nums = -den, [-c for c in nums]
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
        self._nums: Tuple[int, ...] = tuple(nums)
        self._den: int = den

    @classmethod
    def _of(cls, nums: List[int], den: int = 1) -> "Poly":
        """Poly with x^m coefficient nums[m] / den (any nonzero den).

        Takes ownership of `nums`: the list may be changed in place.
        """
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    @classmethod
    def from_integer_form(cls, nums: Iterable[int], den: int = 1) -> "Poly":
        """Poly with x^m coefficient nums[m] / den, for ints and any nonzero den."""
        if den == 0:
            raise ZeroDivisionError("polynomial denominator must be nonzero")
        return cls._of(list(nums), den)

    @property
    def integer_form(self) -> Tuple[Tuple[int, ...], int]:
        """(numerators, denominator) in normal form; `from_integer_form` inverts it."""
        return self._nums, self._den

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        c = as_rational(coeff)
        return cls._of([0] * degree + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self) -> Union[int, None]:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else None

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, m: int) -> Fraction:
        """Coefficient of x^m (0 beyond the stored degree)."""
        if m < 0:
            raise ValueError("monomial degree must be >= 0")
        if m >= len(self._nums):
            return Fraction(0)
        return Fraction(self._nums[m], self._den)

    def evaluate(self, x: RationalLike) -> Fraction:
        """Exact evaluation at x = p/q: Horner on c_m * q^(deg-m), one Fraction."""
        point = as_rational(x)
        nums = self._nums
        if not nums:
            return Fraction(0)
        p, q = point.numerator, point.denominator
        acc = 0
        q_power = 1
        for c in reversed(nums):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, q ** (len(nums) - 1) * self._den)

    __call__ = evaluate

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        a, b = self._nums, other._nums
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, sign * (self._den // g)
        out = [c * fa for c in a] + [0] * (len(b) - len(a))
        for m, c in enumerate(b):
            out[m] += c * fb
        return Poly._of(out, self._den * fa)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            a, b = self._nums, other._nums
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
            return Poly._of(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            factor = as_rational(other)
            p = factor.numerator
            return Poly._of([c * p for c in self._nums], self._den * factor.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            divisor = as_rational(scalar)
            if divisor == 0:
                raise ZeroDivisionError("division of a polynomial by zero")
            q = divisor.denominator
            return Poly._of([c * q for c in self._nums], self._den * divisor.numerator)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        inside = ", ".join(format_rational(c) for c in self.coeffs)
        return f"Poly([{inside}])"

    def to_json(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Poly":
        return cls(parse_rational(c) for c in data["coeffs"])


class LegendreSeries:
    """Finite combination sum_m c_m * P_m(x), stored sparsely by degree.

    Zero coefficients are never stored, so the empty series is the zero
    function. Instances are immutable; duplicate degrees passed to the
    constructor are accumulated.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike], Iterable[Tuple[int, RationalLike]]] = ()) -> None:
        data: Dict[int, Fraction] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in pairs:
            degree = index(m)
            if degree < 0:
                raise ValueError("series degrees must be >= 0")
            value = as_rational(c) + data[degree] if degree in data else as_rational(c)
            if value == 0:
                data.pop(degree, None)
            else:
                data[degree] = value
        self._terms: Dict[int, Fraction] = dict(sorted(data.items()))

    @classmethod
    def _of(cls, terms: Iterable[Tuple[int, Fraction]]) -> "LegendreSeries":
        """Series from ascending (degree, nonzero Fraction) pairs, taken as they are."""
        series = cls.__new__(cls)
        series._terms = dict(terms)
        return series

    @property
    def terms(self) -> Dict[int, Fraction]:
        """Degree -> coefficient map (a copy; ascending degree)."""
        return dict(self._terms)

    def coefficient(self, m: int) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def degrees(self) -> Tuple[int, ...]:
        return tuple(self._terms)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LegendreSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        inside = ", ".join(f"{m}: {format_rational(c)}" for m, c in self._terms.items())
        return f"LegendreSeries({{{inside}}})"

    def to_json(self) -> dict:
        return {"terms": {str(m): format_rational(c) for m, c in self._terms.items()}}

    @classmethod
    def from_json(cls, data: Mapping) -> "LegendreSeries":
        return cls((_parse_index(m), parse_rational(c)) for m, c in data["terms"].items())


BONNET_CACHE_SIZE = 128


def _bonnet_rows() -> Iterator[List[int]]:
    """Integer rows of R_m = 2^m * P_m for m = 0, 1, 2, ...

    Row m lists the coefficients of x^m, x^(m-2), x^(m-4), ... (the others
    vanish by parity), so entry i belongs to x^(m-2i). The rows obey the
    Bonnet recurrence times 2^(m+1),

        (m+1) R_{m+1} = 2(2m+1) x R_m - 4m R_{m-1},

    and the division by m+1 is exact, since 2^m P_m has the integer
    coefficient (-1)^i C(m, i) C(2m-2i, m) at x^(m-2i). Only the last two
    rows are kept.
    """
    prev: List[int] = []
    cur = [1]
    m = 0
    while True:
        yield cur
        a, b, m = 2 * (2 * m + 1), 4 * m, m + 1
        prev, cur = cur, [(a * c - b * d) // m for c, d in zip(cur + [0], [0] + prev)]


def _bonnet_poly(m: int, row: List[int]) -> Poly:
    """P_m from row m of `_bonnet_rows`: the row's entries over 2^m."""
    dense = [0] * (m + 1)
    dense[m::-2] = row
    return Poly._of(dense, 2 ** m)


@lru_cache(maxsize=BONNET_CACHE_SIZE)
def legendre_bonnet(n: int) -> Poly:
    """P_n via the three-term recurrence (m+1)P_{m+1} = (2m+1)xP_m - mP_{m-1}.

    Runs in integers on R_m = 2^m P_m, which obeys
    (m+1) R_{m+1} = 2(2m+1) x R_m - 4m R_{m-1} with R_0 = 1, R_1 = 2x and
    an exact division by m+1; P_n is the last row over 2^n. The most recent
    BONNET_CACHE_SIZE degrees are cached for direct callers (`cache_clear()`
    empties it); `to_poly`, the projection and the sweeps walk `_bonnet_rows`.
    Poly is immutable, so sharing results across callers and threads is safe.
    """
    if n < 0:
        raise ValueError("Legendre degree must be >= 0")
    return _bonnet_poly(n, next(islice(_bonnet_rows(), n, None)))


def _basis(form: str, n: int, rows: Sequence[List[int]]) -> Tuple[Poly, ...]:
    """The polynomials of `expansion_basis` from the Bonnet rows R_0 ... R_n."""
    if form == FORM_DERIVATIVE:
        return tuple(differentiate(_bonnet_poly(n - k, rows[n - k]), k) for k in range(n // 2 + 1))
    return tuple(_bonnet_poly(n - 2 * k, rows[n - 2 * k]) for k in range(n // 2 + 1))


def expansion_basis(form: str, n: int) -> Tuple[Poly, ...]:
    """The polynomial ``coeffs[k]`` of a `scaling.ScalingExpansion` multiplies,
    for every k = 0 ... floor(n/2): d^k P_{n-k} (derivative form) or P_{n-2k}
    (legendre form), all from one walk of the Bonnet rows."""
    if form not in (FORM_DERIVATIVE, FORM_LEGENDRE):
        raise ValueError(f"unknown form {form!r}")
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _basis(form, n, list(islice(_bonnet_rows(), n + 1)))


def _scaled_rodrigues(p: int, q: int, n: int) -> Poly:
    """P_n(lam*x), lam = p/q != 0, by the construction that
    `verify.replay_rodrigues_derivation` replays: times p^(2n), its binomial
    sum has the integer terms C(n,k) (p^2-q^2)^(n-k) p^(2k) (x^2-1)^k, and
    with the prefactor they stand over p^n q^n 2^n n!. D^n keeps only their
    x^(2j) with 2j >= n, so k starts at ceil(n/2) and j steps down from k by
    the exact ratio C(k,j-1) = C(k,j) j / (k-j+1), the sign alternating."""
    shift = p * p - q * q
    half = (n + 1) // 2  # the least j with 2j >= n
    acc = [0] * (2 * n + 1)
    for k in range(half, n + 1):
        c = comb(n, k) * shift ** (n - k) * p ** (2 * k)  # times (-1)^(k-j) C(k,j) at j = k
        for j in range(k, half - 1, -1):
            acc[2 * j] += c
            c = -c * j // (k - j + 1)
    return differentiate(Poly.from_integer_form(acc, p ** n * (2 * q) ** n * factorial(n)), n)


def legendre_rodrigues(n: int) -> Poly:
    """P_n as the n-th derivative of (x^2-1)^n divided by 2^n n!: the derivation
    replay's core `_scaled_rodrigues` at lam = 1. Its binomial expansion shares
    no recurrence with `legendre_bonnet`."""
    if n < 0:
        raise ValueError("Legendre degree must be >= 0")
    return _scaled_rodrigues(1, 1, n)


def legendre_murphy(n: int) -> Poly:
    """P_n as the terminating Gauss series in z = (1-x)/2.

    P_n has the integer z^j coefficient c_j = (-1)^j C(n,j) C(n+j,j), and
    z^j = (1-x)^j / 2^j, so 2^n P_n has the integer x^m coefficient
    (-1)^m sum_{j >= m} c_j C(j,m) 2^(n-j). No recurrence is shared with
    `legendre_bonnet`.
    """
    if n < 0:
        raise ValueError("Legendre degree must be >= 0")
    series = [(-1) ** j * comb(n, j) * comb(n + j, j) << (n - j) for j in range(n + 1)]
    nums = [(-1) ** m * sum(series[j] * comb(j, m) for j in range(m, n + 1)) for m in range(n + 1)]
    return Poly._of(nums, 2 ** n)


def differentiate(p: Poly, k: int = 1) -> Poly:
    """Exact k-fold formal derivative; zero once k exceeds the degree.

    One pass: x^m becomes m!/(m-k)! x^(m-k), the weight updated from one m
    to the next.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    nums = p._nums
    out = []
    weight = factorial(k)  # m!/(m-k)! at m = k
    for m in range(k, len(nums)):
        out.append(nums[m] * weight)
        weight = weight * (m + 1) // (m + 1 - k)
    return Poly._of(out, p._den)


def scale_argument(p: Poly, lam: RationalLike) -> Poly:
    """q with q(x) = p(lam * x): coefficient m picks up lam^m.

    With lam = a/b and d = deg p, numerator m is multiplied by a^m b^(d-m)
    and the denominator by b^d.
    """
    factor = as_rational(lam)
    if p.is_zero:
        return p
    a, b = factor.numerator, factor.denominator
    top = len(p._nums) - 1
    out = []
    a_power, b_power = 1, b ** top
    for c in p._nums:
        out.append(c * a_power * b_power)
        a_power *= a
        b_power //= b
    return Poly._of(out, p._den * b ** top)


def inner_product(p: Poly, q: Poly) -> Fraction:
    """Integral of p*q over [-1, 1] by exact term-wise monomial integration.

    x^s integrates to 2/(s+1) for even s and to zero for odd s, which is
    skipped without arithmetic. The product's even numerators are summed
    over L = lcm of the odd numbers up to deg(pq)+1, so one Fraction is
    built.
    """
    prod = p * q
    nums = prod._nums
    big_l = lcm(*range(1, len(nums) + 1, 2))
    total = sum(c * (2 * big_l // (s + 1)) for s, c in enumerate(nums) if c and s % 2 == 0)
    return Fraction(total, big_l * prod._den)


def _projection(p: Poly, rows: Iterable[List[int]]) -> List[Tuple[int, int, int]]:
    """The integer core of `project_to_legendre`: (m, numerator, denominator),
    unreduced, for each degree m whose coefficient is nonzero, ascending.

    With p = sum_i N_i x^i / D of degree n, L = lcm(1, 3, ..., 2n+1) and the
    integer moments M_j = sum_{i = j mod 2} N_i * L / (i+j+1), so that
    int_{-1}^{1} x^j p = 2 M_j / (D L), and with R_m[j] the x^j coefficient
    of R_m = 2^m P_m, row m of `rows` (as `_bonnet_rows` yields them),

        c_m = (2m+1) * sum_j R_m[j] M_j / (2^m D L).

    i+j+1 is odd, so the n+1 weights L/d, d = 1, 3, ..., 2n+1, are divided
    out once. Deliberately sums every degree 0 ... n, so vanishing
    coefficients are computed, not assumed; this keeps the projection usable
    as an independent check on any coefficient formula. O(n^2) products.
    """
    nums, den = p._nums, p._den
    size = len(nums)
    big_l = lcm(*range(1, 2 * size, 2))
    weights = [big_l // d for d in range(1, 2 * size, 2)]  # entry t is L/(2t+1)
    # M_j pairs N_i, i = j mod 2, j mod 2 + 2, ..., with L/(i+j+1) from t = ceil(j/2) on
    moments = [sum(map(mul, nums[j % 2::2], weights[(j + 1) // 2:])) for j in range(size)]
    found = []
    for m, row in zip(range(size), rows):
        total = sum(map(mul, row, moments[m::-2]))
        if total:
            found.append((m, (2 * m + 1) * total, 2 ** m * den * big_l))
    return found


def project_to_legendre(p: Poly) -> LegendreSeries:
    """Legendre coefficients by exact integration: c_m = (2m+1)/2 * <p, P_m>,
    one Fraction per nonzero coefficient of `_projection` over one walk of
    the Bonnet rows."""
    return LegendreSeries._of((m, Fraction(num, den)) for m, num, den in _projection(p, _bonnet_rows()))


def _combination(weights: Iterable[Tuple[int, int]], parts: Sequence[Poly]) -> Poly:
    """sum_k (p_k/q_k) * parts[k] for weights (p_k, q_k) of ints, q_k > 0 and
    not necessarily reduced, summed in ints over one common denominator.

    With parts[k] = N_k/D_k, term k is p_k N_k / (q_k D_k); every term is
    brought to the lcm of the q_k D_k and one Poly is normalised at the end.
    Zero weights are skipped.
    """
    terms = [(p, q * part._den, part._nums) for (p, q), part in zip(weights, parts) if p]
    common = lcm(*(den for _, den, _ in terms))
    acc = [0] * max((len(nums) for _, _, nums in terms), default=0)
    for p, den, nums in terms:
        scale = p * (common // den)
        for m, c in enumerate(nums):
            acc[m] += scale * c
    return Poly._of(acc, common)


def to_poly(series: LegendreSeries) -> Poly:
    """Rebuild sum_m c_m * P_m as a dense polynomial: one integer combination of
    the P_m read from one walk of the Bonnet rows up to the top degree."""
    terms = series._terms  # ascending degrees
    rows = zip(range(max(terms, default=-1) + 1), _bonnet_rows())
    weights = [(c.numerator, c.denominator) for c in terms.values()]
    return _combination(weights, [_bonnet_poly(m, row) for m, row in rows if m in terms])
