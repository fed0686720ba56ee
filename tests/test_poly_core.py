"""Properties of the integer-numerator polynomial core.

`Poly` stores int numerators over one denominator. Every operation is
checked here against a plain list-of-Fraction reference model, and the
Bonnet rows and moment projection against the Fraction oracles they
replaced.
"""

import sys
import threading
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legscale import (
    LegendreSeries,
    Poly,
    differentiate,
    inner_product,
    legendre_bonnet,
    project_to_legendre,
    scale_argument,
    to_poly,
)
from legscale import polynomials
from legscale.polynomials import BONNET_CACHE_SIZE

rationals = st.fractions(min_value=-7, max_value=7, max_denominator=12)
coefficient_lists = st.lists(rationals, max_size=9)
nonzero_rationals = rationals.filter(bool)


# --- reference model: a polynomial is a list of Fractions, x^m at index m ---


def ref(values):
    out = [Fraction(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_add(a, b, sign=1):
    width = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (width - len(a)), b + [Fraction(0)] * (width - len(b))
    return ref(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_differentiate(a, k):
    for _ in range(k):
        a = [m * a[m] for m in range(1, len(a))]
    return ref(a)


def ref_scale_argument(a, lam):
    return ref(c * lam ** m for m, c in enumerate(a))


def ref_inner_product(a, b):
    total = Fraction(0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if (i + j) % 2 == 0:
                total += x * y * Fraction(2, i + j + 1)
    return total


def model(p: Poly):
    return list(p.coeffs)


# --- agreement with the reference model ---


@given(a=coefficient_lists, b=coefficient_lists)
@settings(deadline=None, max_examples=60)
def test_ring_operations_match_reference(a, b):
    p, q = Poly(a), Poly(b)
    assert model(p) == ref(a)
    assert model(p + q) == ref_add(ref(a), ref(b))
    assert model(p - q) == ref_add(ref(a), ref(b), -1)
    assert model(-p) == ref(-c for c in a)
    assert model(p * q) == ref_mul(ref(a), ref(b))


@given(a=coefficient_lists, s=rationals, d=nonzero_rationals, n=st.integers(-9, 9))
@settings(deadline=None, max_examples=60)
def test_scalar_operations_match_reference(a, s, d, n):
    p = Poly(a)
    assert model(p * s) == ref(c * s for c in a)
    assert model(s * p) == ref(c * s for c in a)
    assert model(p * n) == ref(c * n for c in a)
    assert model(p / d) == ref(c / d for c in a)
    assert model(p / (n or 1)) == ref(c / (n or 1) for c in a)


@given(a=coefficient_lists, x=rationals)
@settings(deadline=None, max_examples=60)
def test_evaluate_matches_reference(a, x):
    assert Poly(a).evaluate(x) == ref_evaluate(ref(a), x)


@given(a=coefficient_lists, k=st.integers(0, 11))
@settings(deadline=None, max_examples=60)
def test_differentiate_matches_reference(a, k):
    assert model(differentiate(Poly(a), k)) == ref_differentiate(ref(a), k)


@given(a=coefficient_lists, lam=rationals)
@settings(deadline=None, max_examples=60)
def test_scale_argument_matches_reference(a, lam):
    assert model(scale_argument(Poly(a), lam)) == ref_scale_argument(ref(a), lam)


@given(a=coefficient_lists, b=coefficient_lists)
@settings(deadline=None, max_examples=50)
def test_inner_product_matches_reference(a, b):
    assert inner_product(Poly(a), Poly(b)) == ref_inner_product(ref(a), ref(b))


# --- one stored form per value ---


@given(a=coefficient_lists, scale=st.integers(-30, 30).filter(bool), s=nonzero_rationals)
@settings(deadline=None, max_examples=60)
def test_equal_values_compare_and_hash_equal(a, scale, s):
    p = Poly(a)
    den = lcm(*(c.denominator for c in p.coeffs))
    nums = [int(c * den) for c in p.coeffs]
    # the same value over a scaled denominator, possibly a negative one
    rescaled = Poly._of([c * scale for c in nums], den * scale)
    for same in (rescaled, (p * s) / s, (p / s) * s, (p + Poly((s,))) - Poly((s,))):
        assert same == p
        assert hash(same) == hash(p)
        assert same.coeffs == p.coeffs
    assert (rescaled - p).is_zero
    assert (rescaled - p).degree is None


@given(a=coefficient_lists, scale=st.integers(-30, 30).filter(bool))
@settings(deadline=None, max_examples=50)
def test_integer_form_round_trip(a, scale):
    p = Poly(a)
    nums, den = p.integer_form
    assert den > 0
    assert [Fraction(c, den) for c in nums] == ref(a)
    assert Poly.from_integer_form(nums, den) == p
    assert Poly.from_integer_form([c * scale for c in nums], den * scale) == p


def test_integer_form_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Poly.from_integer_form([1, 2], 0)


def test_negative_denominator_is_normalised():
    assert Poly._of([1, -2], -4) == Poly((Fraction(-1, 4), Fraction(1, 2)))
    assert Poly._of([0, 0], -7) == Poly()


# --- JSON round trips ---


@given(a=coefficient_lists)
@settings(deadline=None, max_examples=50)
def test_poly_json_round_trip(a):
    p = Poly(a)
    assert Poly.from_json(p.to_json()) == p


@given(terms=st.dictionaries(st.integers(0, 30), rationals, max_size=8))
@settings(deadline=None, max_examples=50)
def test_series_json_round_trip(terms):
    series = LegendreSeries(terms)
    assert LegendreSeries.from_json(series.to_json()) == series


# --- projection through integer moments ---


def projection_oracle(p: Poly) -> LegendreSeries:
    """The projection before integer moments: (2m+1)/2 * <p, P_m> for each m."""
    if p.is_zero:
        return LegendreSeries()
    return LegendreSeries(
        (m, Fraction(2 * m + 1, 2) * inner_product(p, legendre_bonnet(m)))
        for m in range(p.degree + 1)
    )


wide_polys = st.builds(
    Poly, st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=60), max_size=24)
)


@given(p=wide_polys)
@settings(deadline=None, max_examples=40)
def test_projection_matches_oracle_and_round_trips(p):
    series = project_to_legendre(p)
    assert series == projection_oracle(p)
    assert to_poly(series) == p


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-3, 5), Fraction(7, 3)], ids=str)
def test_projection_of_scaled_targets_matches_oracle(lam):
    # The eq13 targets P_n(lam*x) for n <= 60. At lam = 0 each is the
    # constant P_n(0), or the zero polynomial at odd n: short targets of
    # one coefficient or none.
    assert project_to_legendre(Poly()) == projection_oracle(Poly()) == LegendreSeries()
    for n in range(61):
        target = scale_argument(legendre_bonnet(n), lam)
        assert project_to_legendre(target) == projection_oracle(target), n
        if lam == 0:
            assert target.degree == (None if n % 2 else 0), n


def test_projection_of_high_degree_bonnet_polynomials():
    # The projection walks its own Bonnet rows at every degree; the oracle
    # reads P_0 ... P_n from the bounded `legendre_bonnet` cache, which it
    # fills at degree 127 and which stays within its bound past it.
    legendre_bonnet.cache_clear()
    for n in (60, 61, 127, 128, 129):
        assert project_to_legendre(legendre_bonnet(n)).terms == {n: 1}
        assert project_to_legendre(legendre_bonnet(n)) == projection_oracle(legendre_bonnet(n))
        assert legendre_bonnet.cache_info().currsize <= BONNET_CACHE_SIZE
    assert legendre_bonnet.cache_info().currsize == BONNET_CACHE_SIZE  # filled at degree 127


def test_cold_projection_walks_the_rows_once(monkeypatch):
    # The projection reads no `legendre_bonnet` entry: from a cold cache,
    # projecting a degree-127 target adds one walk of the Bonnet rows and no
    # `legendre_bonnet` call.
    legendre_bonnet.cache_clear()
    target = scale_argument(legendre_bonnet(127), Fraction(7, 3))
    walks = []
    real = polynomials._bonnet_rows

    def counting():
        walks.append(1)
        return real()

    monkeypatch.setattr(polynomials, "_bonnet_rows", counting)
    before = legendre_bonnet.cache_info()
    projected = project_to_legendre(target)
    after = legendre_bonnet.cache_info()
    assert len(walks) == 1
    assert after.hits + after.misses == before.hits + before.misses
    assert projected == projection_oracle(target)


def test_cold_to_poly_walks_the_rows_once(monkeypatch):
    # `to_poly` read one `legendre_bonnet` entry per degree, and on a cold
    # cache each miss walked the Bonnet rows from R_0 again: 101 walks here.
    # It reads one walk, up to the top degree, and no cache entry.
    series = LegendreSeries({m: Fraction(m + 1, 7) for m in range(0, 301, 3)})
    expected = sum((c * legendre_bonnet(m) for m, c in series.items()), Poly.zero())
    legendre_bonnet.cache_clear()
    walks = []
    real = polynomials._bonnet_rows

    def counting():
        walks.append(1)
        return real()

    monkeypatch.setattr(polynomials, "_bonnet_rows", counting)
    assert to_poly(series) == expected
    assert len(walks) == 1
    info = legendre_bonnet.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_projections_beside_concurrent_cache_clears_and_fills():
    # The projection walks its own Bonnet rows; `legendre_bonnet` fills and
    # clears its bounded cache beside it. Threads that climb the even or the
    # odd degrees fill that cache with different degrees at once, and each
    # round starts by clearing it: every P_n they read from it, and every
    # projection of it over its own walk, must stay exact.
    wrong = []

    def work(parity):
        for n in range(parity, 48, 2):
            if project_to_legendre(legendre_bonnet(n)).terms != {n: 1}:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            legendre_bonnet.cache_clear()
            threads = [threading.Thread(target=work, args=(parity,)) for parity in (0, 1, 0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


# --- Bonnet rows ---


def test_bonnet_matches_fraction_recurrence():
    # (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}, run in the reference model
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    assert model(legendre_bonnet(0)) == prev
    for m in range(1, 60):
        assert model(legendre_bonnet(m)) == cur, m
        lead = ref_mul([Fraction(0), Fraction(2 * m + 1, m + 1)], cur)
        prev, cur = cur, ref_add(lead, [Fraction(m, m + 1) * c for c in prev], -1)


def test_bonnet_cache_is_bounded():
    info = legendre_bonnet.cache_info()
    assert info.maxsize == BONNET_CACHE_SIZE
    for n in range(BONNET_CACHE_SIZE + 5):
        legendre_bonnet(n)
    assert legendre_bonnet.cache_info().currsize <= BONNET_CACHE_SIZE
