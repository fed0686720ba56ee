"""The integer routes against the code they replaced.

The closed recurrence, the Murphy series of the triangular route, the
z-substitution and the row sums behind the surplus rows, the derivation
replay, the eq9/eq13 reconstruction, `to_poly`, `legendre_murphy` and the
derivative-form weights all run in Python integers over one common
denominator. Each is checked here by exact equality against a reference
model written with Fractions and `Poly` products, as the routes were before.
The Legendre-form weights b_k, a Horner sum with one exact weight step per
term, are checked against the diagonal alpha sums `scaling` used first and
against the composition of the a_j with Doha's closed-form rows it used
next. The rows of `table a`, built by a_k(n+1) = lam * a_k(n), and of
`table alpha`, read from Doha's ints, are checked against
`expand_derivative_form` and `deriv_expand_closed`. The telescoping route,
now running sums over one parity, is checked against its dict-per-pass
form, and the `LegendreSeries` constructor against the one that added to
Fraction(0) for every term. The scalar recurrences behind `eval` are
checked against the `Poly` route they replaced (Bonnet polynomials and
their derivatives, evaluated by Horner), and the derivative-form walk along
k against the per-k ultraspherical runs it replaced. Each public expansion,
alpha route and the projection is pinned against the integer core that
`verify` reads, and the stepped binomials of `_z_form` against `math.comb`.
"""

from fractions import Fraction
from itertools import count
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legscale.verify
from legscale import (
    DEFAULT_LAMBDAS,
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    LegendreSeries,
    Poly,
    a_coefficient,
    alpha_nki,
    b_coefficient,
    b_coefficient_untruncated,
    binomial,
    deriv_expand_closed,
    deriv_expand_recurrence,
    deriv_expand_telescoping,
    deriv_expand_triangular,
    differentiate,
    falling_factorial,
    expand_derivative_form,
    expand_legendre_form,
    expand_legendre_form_untruncated,
    expansion_basis,
    legendre_bonnet,
    legendre_murphy,
    murphy_deriv_series,
    project_to_legendre,
    replay_rodrigues_derivation,
    rising_factorial,
    scale_argument,
    to_poly,
    verify_surplus_rows,
)
from legscale.cli import main
from legscale.derivatives import _alpha_values, _murphy_scaled, _telescoping, _triangular
from legscale.rationals import as_rational, format_rational
from legscale.polynomials import _bonnet_poly, _bonnet_rows, _projection
from legscale.scaling import _a_rows, _basis_values, _derivative_form, _doha_alphas, _legendre_form
from legscale.verify import _combination, _z_form

# --- reference models ---


def ref_z_coeffs(p: Poly, width: int):
    """p in powers of z under x = 1 - 2z, by Poly products of (1 - 2z)^m."""
    substituted = Poly.zero()
    power = Poly.one()
    step = Poly((1, -2))
    for m, c in enumerate(p.coeffs):
        if m:
            power = power * step
        if c:
            substituted = substituted + c * power
    return tuple(substituted.coefficient(j) for j in range(width))


def fraction_z_coeffs(p: Poly, width: int):
    """p in powers of z under x = 1 - 2z, one Fraction per entry: the z^j
    coefficient (-2)^j sum_{m>=j} N_m C(m,j) / D, as eq24-rows summed it."""
    nums, den = p.integer_form
    return tuple(
        Fraction((-2) ** j * sum(c * comb(m, j) for m, c in enumerate(nums[j:], j)), den)
        for j in range(width)
    )


def ref_surplus_rows(n_max: int, triangular):
    """The eq24-rows sweep in Fractions: (first failing (n, k, row, combined,
    lhs) or None, cases checked), the alpha sum of each odd-offset row added
    up one Fraction product at a time."""
    cases = 0
    for n in range(n_max + 1):
        for k in range(n + 1):
            cases += 1
            big_n = n - k
            alphas = triangular(n, k).alphas
            lhs = fraction_z_coeffs(differentiate(legendre_bonnet(n), k), big_n + 1)
            rows = [fraction_z_coeffs(legendre_bonnet(m), m + 1) for m in range(big_n, -1, -2)]
            for j in range(big_n + 1):
                if (big_n - j) % 2 == 0:
                    continue
                combined = Fraction(0)
                for alpha, row in zip(alphas, rows):
                    if j < len(row):
                        combined += alpha * row[j]
                if combined != lhs[j]:
                    return (n, k, j, combined, lhs[j]), cases
    return None, cases


def ref_b_composition(lam: Fraction, n: int, untruncated: bool):
    """b_k = sum_j a_j * alpha_nki(n, k, k-j) in ints over q^n 2^h h!: row j,
    Doha's closed form of d^j P_{n-j}, adds its entry i to b_{j+i}. The
    truncated sum takes row 0 at b_0 only, the untruncated all of it."""
    p, q = lam.numerator, lam.denominator
    h = n // 2
    common = q ** n * 2 ** h * factorial(h)
    sums = [0] * (h + 1)
    for j in range(h + 1):
        weight = p ** (n - 2 * j) * (p * p - q * q) ** j * (common // (q ** n * 2 ** j * factorial(j)))
        row = _doha_alphas(n - j, j)
        for i, alpha in enumerate(row if j or untruncated else row[:1]):
            sums[j + i] += weight * alpha
    return tuple(Fraction(b, common) for b in sums)


def ref_combination(coeffs, parts) -> Poly:
    """sum_k coeffs[k] * parts[k] as one Poly product and one Poly sum per
    nonzero weight, as the eq9/eq13 reconstruction was written."""
    rebuilt = Poly.zero()
    for c, part in zip(coeffs, parts):
        if c:
            rebuilt = rebuilt + c * part
    return rebuilt


def ref_replay(lam: Fraction, n: int) -> Poly:
    """The binomial sum of ((x^2-1) + (lam^2-1)/lam^2)^n as Poly products."""
    shift = (lam * lam - 1) / (lam * lam)
    ring = Poly((-1, 0, 1))
    power = Poly.one()
    acc = Poly.zero()
    for k in range(n + 1):
        if k:
            power = power * ring
        acc = acc + (binomial(n, k) * shift ** (n - k)) * power
    return (lam ** n / (Fraction(2) ** n * factorial(n))) * differentiate(acc, n)


def ref_murphy(n: int, k: int):
    """The Murphy series of d^k P_n with a Fraction lead and Fraction ratios."""
    term = binomial(n, k) * rising_factorial(n + 1, k) / Fraction(2) ** k
    out = []
    for j in range(n - k + 1):
        out.append(term)
        term *= Fraction((k - n + j) * (n + k + 1 + j), (k + 1 + j) * (j + 1))
    return tuple(out)


def ref_recurrence(n: int, k: int):
    """The closed recurrence with half-integer Fraction falling factorials."""
    half = Fraction(1, 2)
    values = []
    for i in range((n - k) // 2 + 1):
        lead = (
            Fraction(2) ** (k + 2 * i)
            * falling_factorial(n - half, k)
            * falling_factorial(n - i, i)
            * falling_factorial(n - k - half, 2 * i)
            / (falling_factorial(2 * i, 2 * i) * falling_factorial(n - half, i))
        )
        values.append(lead - sum(comb(2 * (n - k - i - l), 2 * (i - l)) * values[l] for l in range(i)))
    return tuple(values)


def ref_telescoping(n: int, k: int):
    """The telescoping route as a dict per pass: every term of every pass
    spread over all lower degrees of the other parity, O(n^2) per pass."""
    if k > n:
        return ()
    current = {n: 1}
    for _ in range(k):
        nxt = {}
        for m, c in current.items():
            for target in range(m - 1, -1, -2):
                nxt[target] = nxt.get(target, 0) + c * (2 * target + 1)
        current = nxt
    count = (n - k) // 2 + 1
    return tuple(Fraction(current.get(n - k - 2 * i, 0)) for i in range(count))


def ref_series_terms(pairs):
    """The `LegendreSeries` constructor that added every term to Fraction(0)."""
    data = {}
    for m, c in pairs:
        degree = int(m)
        if degree < 0:
            raise ValueError("series degrees must be >= 0")
        value = data.get(degree, Fraction(0)) + as_rational(c)
        if value == 0:
            data.pop(degree, None)
        else:
            data[degree] = value
    return dict(sorted(data.items()))


def ref_a(lam: Fraction, n: int, k: int) -> Fraction:
    return lam ** (n - 2 * k) * (lam * lam - 1) ** k / (Fraction(2) ** k * factorial(k))


def ref_alpha_row(n: int, k: int):
    """alpha_nki(n, k, i) for i = 0 ... k along one diagonal of the closed
    form, the odd-factor product gaining 2(n-2k+i)+3 per step down in i."""
    if k == 0:
        return [1]
    row = [0] * (k + 1)
    odd_run = 1
    for i in range(k, -1, -1):
        if i <= k - 2:
            odd_run *= 2 * (n - 2 * k + i) + 3
        row[i] = (2 * (n - 2 * k) + 1) * comb(k - 1, i) * odd_run
    return row


def ref_b(lam: Fraction, n: int, k: int, top_i: int) -> Fraction:
    """sum_{i=0}^{top_i} a_{k-i} * alpha_nki(n, k, i) over q^n 2^k k!, one k at a time."""
    p, q = lam.numerator, lam.denominator
    shift = p * p - q * q
    row = ref_alpha_row(n, k)
    total = 0
    scale = 1  # 2^i k! / (k-i)!
    for i in range(top_i + 1):
        total += p ** (n - 2 * k + 2 * i) * shift ** (k - i) * scale * row[i]
        scale *= 2 * (k - i)
    return Fraction(total, q ** n * 2 ** k * factorial(k))


def ref_legendre_murphy(n: int) -> Poly:
    """The Gauss series in z = (1-x)/2 with rising factorials and Poly products."""
    half = Fraction(1, 2)
    z = Poly((half, -half))
    power = Poly.one()
    acc = Poly.zero()
    for j in range(n + 1):
        if j:
            power = power * z
        coeff = rising_factorial(-n, j) * rising_factorial(n + 1, j) / Fraction(factorial(j) ** 2)
        acc = acc + coeff * power
    return acc


def ref_to_poly(series: LegendreSeries) -> Poly:
    """sum_m c_m * P_m as one Poly product and one Poly sum per term."""
    acc = Poly.zero()
    for m, c in series.items():
        acc = acc + c * legendre_bonnet(m)
    return acc


# --- agreement ---


def pairs(coeffs):
    """Fractions as the (numerator, denominator) weights `_combination` takes."""
    return [(c.numerator, c.denominator) for c in coeffs]


def z_fractions(p: Poly, width: int):
    nums, den = _z_form(p, width)
    return tuple(Fraction(c, den) for c in nums)


def test_z_substitution_of_bonnet_polynomials():
    for n in range(31):
        p = legendre_bonnet(n)
        assert z_fractions(p, n + 1) == ref_z_coeffs(p, n + 1) == fraction_z_coeffs(p, n + 1), n
        # P_n has the z^j coefficient (-1)^j C(n,j) C(n+j,j)
        assert z_fractions(p, n + 1) == tuple(
            (-1) ** j * binomial(n, j) * binomial(n + j, j) for j in range(n + 1)
        )


@given(
    coeffs=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=15), max_size=12),
    extra=st.integers(0, 3),
)
@settings(deadline=None, max_examples=60)
def test_z_substitution_of_drawn_polynomials(coeffs, extra):
    p = Poly(coeffs)
    width = len(coeffs) + extra  # entries past the degree are zero
    assert z_fractions(p, width) == ref_z_coeffs(p, width) == fraction_z_coeffs(p, width)


def test_surplus_rows_match_the_fraction_sums():
    report = verify_surplus_rows(24)
    assert report.passed and (None, report.cases) == ref_surplus_rows(24, deriv_expand_triangular)


@given(
    n=st.integers(1, 12),
    data=st.data(),
    # mostly zeros; each moves one 2^k alpha_i of the triangular core, so alpha_i by d / 2^k
    deltas=st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=7, max_size=7),
)
@settings(deadline=None, max_examples=40)
def test_surplus_rows_name_the_fraction_counterexample(n, data, deltas):
    # The alphas of one (n, k) moved by deltas: the integer rows must name the
    # same case, row and both sides as the Fraction sums.
    k = data.draw(st.integers(0, n - 1))
    z_rows = [_murphy_scaled(m, 0) for m in range(n + 1)]

    def corrupted_core(n2, k2, rows):
        scaled = _triangular(n2, k2, rows)
        return [b + d for b, d in zip(scaled, deltas)] if (n2, k2) == (n, k) else scaled

    def corrupted(n2, k2):
        return type(deriv_expand_triangular(n2, k2))(
            n2, k2, tuple(Fraction(b, 2 ** k2) for b in corrupted_core(n2, k2, z_rows))
        )

    expected, cases = ref_surplus_rows(n, corrupted)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(legscale.derivatives, "_triangular", corrupted_core)
        report = verify_surplus_rows(n)
    assert report.cases == cases
    if expected is None:
        assert report.passed
    else:
        n_bad, k_bad, row, combined, lhs = expected
        assert report.counterexample.params == {"n": n_bad, "k": k_bad, "row": row, "check": "surplus-row"}
        assert (report.counterexample.rhs, report.counterexample.lhs) == (
            (format_rational(lhs),), (format_rational(combined),)
        )


@pytest.mark.parametrize("lam", [
    Fraction(s) for s in ("1", "-1", "2", "1/2", "-3/5", "7/3", "-17/7", "-123456789011/987654321097")
], ids=str)
def test_replay_matches_poly_products(lam):
    # The replay sums only the terms of degree >= n, which D^n keeps; the
    # reference sums the whole binomial expansion.
    for n in range(41):
        assert replay_rodrigues_derivation(lam, n) == ref_replay(lam, n), n


def test_recurrence_matches_half_integer_falling_factorials():
    # The route runs in plain ints: every alpha is an integer (Doha), so
    # each lead term is one exact division.
    for n in range(61):
        for k in range(n + 1):
            values = _alpha_values(n, k, (n - k) // 2)
            assert all(type(v) is int for v in values), (n, k)
            assert deriv_expand_recurrence(n, k).alphas == ref_recurrence(n, k) == tuple(values), (n, k)


def test_telescoping_running_sums_match_the_dict_passes():
    for n in range(41):
        for k in range(n + 3):
            assert deriv_expand_telescoping(n, k).alphas == ref_telescoping(n, k), (n, k)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=15)


@given(
    terms=st.lists(st.tuples(st.integers(0, 6), st.one_of(small_fractions, st.integers(-5, 5))), max_size=12),
    cancel=st.lists(st.integers(0, 11), max_size=4),
)
@settings(deadline=None, max_examples=200)
def test_series_constructor_matches_adding_to_zero(terms, cancel):
    # Few degrees, so most draws repeat one; `cancel` appends the negation
    # of some drawn terms, so pairs cancel and leave computed zeros.
    pairs = terms + [(terms[i][0], -terms[i][1]) for i in cancel if i < len(terms)]
    series = LegendreSeries(pairs)
    assert list(series.items()) == list(ref_series_terms(pairs).items())
    assert all(type(c) is Fraction and c for c in series.terms.values())


def test_murphy_series_matches_rising_factorials():
    for n in range(41):
        for k in range(n + 1):
            assert murphy_deriv_series(n, k) == ref_murphy(n, k), (n, k)


@pytest.mark.parametrize(
    "lam", DEFAULT_LAMBDAS + tuple(Fraction(s) for s in ("-2", "-1/2", "17/7", "-9/4")), ids=str
)
def test_a_weights_match_fraction_formula(lam):
    for n in range(31):
        expected = tuple(ref_a(lam, n, k) for k in range(n // 2 + 1))
        assert expand_derivative_form(lam, n).coeffs == expected, n
        assert tuple(a_coefficient(lam, n, k) for k in range(n // 2 + 1)) == expected, n


@pytest.mark.parametrize("form", (FORM_DERIVATIVE, FORM_LEGENDRE))
def test_reconstruction_matches_poly_sums(form):
    expand = expand_derivative_form if form == FORM_DERIVATIVE else expand_legendre_form
    lambdas = DEFAULT_LAMBDAS + tuple(Fraction(s) for s in ("-2", "17/7", "-9/4"))
    for n in range(25):
        parts = expansion_basis(form, n)
        for lam in lambdas:
            coeffs = expand(lam, n).coeffs
            assert _combination(pairs(coeffs), parts) == ref_combination(coeffs, parts), (n, lam)


@given(
    n=st.integers(0, 16),
    form=st.sampled_from((FORM_DERIVATIVE, FORM_LEGENDRE)),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_reconstruction_of_drawn_weights(n, form, data):
    # Drawn weights, zeros among them, so terms cancel and denominators mix.
    weight = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=15))
    coeffs = data.draw(st.lists(weight, min_size=n // 2 + 1, max_size=n // 2 + 1))
    parts = expansion_basis(form, n)
    assert _combination(pairs(coeffs), parts) == ref_combination(coeffs, parts)


@pytest.mark.parametrize(
    "lam", DEFAULT_LAMBDAS + tuple(Fraction(s) for s in ("17/7", "-16/7", "-9/4")), ids=str
)
def test_legendre_form_matches_diagonal_alpha_sums(lam):
    for n in range(60):
        ks = range(n // 2 + 1)
        truncated = tuple(ref_b(lam, n, k, max(k - 1, 0)) for k in ks)
        assert expand_legendre_form(lam, n).coeffs == truncated, n
        assert expand_legendre_form_untruncated(lam, n).coeffs == tuple(ref_b(lam, n, k, k) for k in ks), n
        if n < 16:
            assert tuple(b_coefficient(lam, n, k) for k in ks) == truncated, n
            assert tuple(b_coefficient_untruncated(lam, n, k) for k in ks) == truncated, n


COMPOSITION_LAMBDAS = [Fraction(s) for s in ("0", "1", "-1", "2", "1/2", "-3/5", "7/3", "17/7", "-20/7")]


@pytest.mark.parametrize("lam", COMPOSITION_LAMBDAS, ids=str)
def test_legendre_form_matches_the_composition(lam):
    for n in range(61):
        assert expand_legendre_form(lam, n).coeffs == ref_b_composition(lam, n, False), n
        assert expand_legendre_form_untruncated(lam, n).coeffs == ref_b_composition(lam, n, True), n


@pytest.mark.parametrize("lam", COMPOSITION_LAMBDAS, ids=str)
def test_scaling_wrappers_match_their_cores(lam):
    # Each public expansion is Fraction(num, den) of its integer core, entry by entry;
    # the untruncated one adds lam^n times entry k >= 1 of Doha's k = 0 row.
    p, q = lam.numerator, lam.denominator
    for n in range(41):
        a_rows, b_rows = list(_derivative_form(p, q, n)), list(_legendre_form(p, q, n))
        untruncated = [Fraction(t, d) + lam ** n * a for (t, d), a in zip(b_rows, [0] + _doha_alphas(n, 0)[1:])]
        assert expand_derivative_form(lam, n).coeffs == tuple(Fraction(a, d) for a, d in a_rows), n
        assert expand_legendre_form(lam, n).coeffs == tuple(Fraction(t, d) for t, d in b_rows), n
        assert expand_legendre_form_untruncated(lam, n).coeffs == tuple(untruncated), n
        target = scale_argument(legendre_bonnet(n), lam)
        terms = _projection(target, _bonnet_rows())
        assert all(num for _, num, _ in terms) and [m for m, _, _ in terms] == sorted({m for m, _, _ in terms})
        assert project_to_legendre(target).terms == {m: Fraction(num, den) for m, num, den in terms}, n
        if n < 16:
            for k in range(n // 2 + 1):
                assert a_coefficient(lam, n, k) == Fraction(*a_rows[k]), (n, k)
                assert b_coefficient(lam, n, k) == Fraction(*b_rows[k]), (n, k)
                assert b_coefficient_untruncated(lam, n, k) == untruncated[k], (n, k)


def test_derivative_wrappers_match_their_cores():
    # The four routes' cores are int lists, empty past k = n; the triangular
    # one holds 2^k alpha and reads P_m's z-row at index m of the one list
    # it is handed, so at k = n+1, n+2 no row is read from its end.
    z_rows = [_murphy_scaled(m, 0) for m in range(41)]
    for n in range(41):
        for k in range(n + 3):
            cores = {
                deriv_expand_telescoping: (_telescoping(n, k), 1),
                deriv_expand_triangular: (_triangular(n, k, z_rows), 2 ** k),
                deriv_expand_recurrence: (_alpha_values(n, k, (n - k) // 2), 1),
                deriv_expand_closed: (_doha_alphas(n, k), 1),
            }
            for route, (values, den) in cores.items():
                assert all(type(v) is int for v in values) and len(values) == max(0, (n - k) // 2 + 1), (n, k)
                assert route(n, k).alphas == tuple(Fraction(v, den) for v in values), (route, n, k)


def test_z_form_steps_match_the_comb_formula():
    # _z_form steps C(m, j) -> C(m+1, j) exactly; the z^j numerator is
    # (-2)^j sum_{m>=j} N_m C(m, j) over the polynomial's own denominator.
    # `_murphy_scaled(m, 0)`, the z-row the triangular solve reads, steps
    # (-1)^j C(m, j) C(m+j, j) by its ratio and must match it term by term.
    for m in range(61):
        nums, den = legendre_bonnet(m).integer_form
        expected = tuple(
            (-2) ** j * sum(c * comb(i, j) for i, c in enumerate(nums[j:], j)) for j in range(m + 1)
        )
        assert _z_form(legendre_bonnet(m), m + 1) == (expected, den), m
        assert _murphy_scaled(m, 0) == [(-1) ** j * comb(m, j) * comb(m + j, j) for j in range(m + 1)], m


def test_alpha_nki_matches_diagonal_rows():
    for n in range(60):
        for k in range(n // 2 + 1):
            assert [alpha_nki(n, k, i) for i in range(k + 1)] == ref_alpha_row(n, k), (n, k)


def test_murphy_polynomial_matches_rising_factorials():
    for n in range(41):
        assert legendre_murphy(n) == ref_legendre_murphy(n), n


def test_to_poly_matches_poly_sums():
    for n in range(31):
        for k in range(n + 2):
            series = deriv_expand_closed(n, k).to_series()
            assert to_poly(series) == ref_to_poly(series), (n, k)


@given(
    terms=st.dictionaries(
        st.integers(0, 20), st.fractions(min_value=-9, max_value=9, max_denominator=15), max_size=8
    )
)
@settings(deadline=None, max_examples=60)
def test_to_poly_of_drawn_series(terms):
    series = LegendreSeries(terms)
    assert to_poly(series) == ref_to_poly(series)


# 40-digit numerator and denominator: every product by lam cancels a real gcd.
LONG_LAMBDA = Fraction(-(2 ** 39) * 3 ** 25 * 5 ** 15 * 7 * 13 ** 4, 11 ** 38)
TABLE_LAMBDAS = DEFAULT_LAMBDAS + (Fraction(17, 7), Fraction(-20, 7), Fraction(12, 8), LONG_LAMBDA)


@pytest.mark.parametrize("lam", TABLE_LAMBDAS, ids=str)
def test_a_rows_match_closed_form(lam):
    # Pairs, not Fractions: each must already be in lowest terms. Both
    # routes are also held to the Fraction formula.
    rows = list(_a_rows(lam, 60))
    assert len(rows) == 61
    for n, row in enumerate(rows):
        assert row == [(c.numerator, c.denominator) for c in expand_derivative_form(lam, n).coeffs], n
        assert [Fraction(*pair) for pair in row] == [ref_a(lam, n, k) for k in range(n // 2 + 1)], n


@pytest.mark.parametrize("lam", TABLE_LAMBDAS, ids=str)
def test_table_a_prints_the_closed_form(capsys, lam):
    assert main(["table", "a", "--n-max", "60", "--lambda", format_rational(lam)]) == 0
    expected = ["n,k,value"] + [
        f"{n},{k},{format_rational(c)}"
        for n in range(61)
        for k, c in enumerate(expand_derivative_form(lam, n).coeffs)
    ]
    assert capsys.readouterr().out.splitlines() == expected


def test_table_alpha_prints_the_closed_form(capsys):
    assert main(["table", "alpha", "--n-max", "60"]) == 0
    expected = ["n,k,i,value"] + [
        f"{n},{k},{i},{format_rational(a)}"
        for n in range(61)
        for k in range(n + 1)
        for i, a in enumerate(deriv_expand_closed(n, k).alphas)
    ]
    assert capsys.readouterr().out.splitlines() == expected


# --- pointwise evaluation ---

POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 8), Fraction(-7, 5),
          Fraction(1234567890123456789012345678901234567891, 9876543210987654321098765432109876543211)]
POINT_LAMBDAS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-20, 7)]


@pytest.fixture(scope="module")
def bonnet_polys():
    """P_0 ... P_150 from one walk of the Bonnet rows."""
    return [_bonnet_poly(m, row) for m, row in zip(range(151), _bonnet_rows())]


def ultraspherical(k, s, t):
    """W_j = j! t^j C^(k+1/2)_j(s/t), j = 0, 1, ..., by the ultraspherical
    recurrence (DLMF 18.9) times (j-1)! t^j: W_0 = 1, W_1 = (2k+1) s and
    W_j = (2j+2k-1) s W_{j-1} - (j-1)(j+2k-1) t^2 W_{j-2}. At k = 0 it is
    Bonnet's recurrence for m! t^m P_m(s/t), since C^(1/2)_m = P_m. `eval` ran
    it once per k before it stepped d^k P_{n-k} along k; here it is the oracle."""
    prev, cur, t2 = 0, 1, t * t
    for j in count(1):
        yield cur
        prev, cur = cur, (2 * j + 2 * k - 1) * s * cur - (j - 1) * (j + 2 * k - 1) * t2 * prev


def run_values(k, x, top):
    """The first top+1 values of `ultraspherical` at x, each over j! t^j."""
    run = ultraspherical(k, x.numerator, x.denominator)
    return [Fraction(w, factorial(j) * x.denominator ** j) for j, w in zip(range(top + 1), run)]


def oracle_basis_values(form, n, x, ks):
    """The basis values by one oracle run per k: d^k P_{n-k}(x) is (2k-1)!!
    C^(k+1/2)_{n-2k}(x), and P_{n-2k}(x) is the k = 0 run at degree n-2k."""
    if form == FORM_DERIVATIVE:
        return {k: prod(range(1, 2 * k, 2)) * run_values(k, x, n - 2 * k)[-1] for k in ks}
    return {k: run_values(0, x, n - 2 * k)[-1] for k in ks}


def basis_fractions(form, n, x, ks):
    """`_basis_values` with each (k, N, d) read as (k, Fraction(N, d)), after
    checking that d is m! t^m, m = n-2k, as its docstring says."""
    values = []
    for k, num, den in _basis_values(form, n, x, ks):
        assert den == factorial(n - 2 * k) * x.denominator ** (n - 2 * k), (form, n, x, k)
        values.append((k, Fraction(num, den)))
    return values


@pytest.mark.parametrize("lam", POINT_LAMBDAS, ids=str)
def test_bonnet_run_matches_horner(bonnet_polys, lam):
    # k = 0 is Bonnet's recurrence: V_m / (m! t^m) = P_m(y), here at y = lam * x
    # as `eval --method direct` uses it; the Legendre walk reads the same values.
    for x in POINTS:
        y = lam * x
        expected = [bonnet_polys[m].evaluate(y) for m in range(101)]
        assert run_values(0, y, 100) == expected, y
        for n in (99, 100):
            values = dict(basis_fractions(FORM_LEGENDRE, n, y, range(n // 2 + 1)))
            assert values == {k: expected[n - 2 * k] for k in range(n // 2 + 1)}, (n, y)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 25, 50])
def test_ultraspherical_run_matches_derivatives(bonnet_polys, k):
    # d^k P_{m+k} = (2k-1)!! C^(k+1/2)_m, so (2k-1)!! W_m / (m! t^m) is d^k P_{m+k}(x);
    # the derivative walk from n = m + 2k down to k reads the same value.
    odd = prod(range(1, 2 * k, 2))
    for x in POINTS:
        expected = [differentiate(bonnet_polys[m + k], k).evaluate(x) for m in range(101)]
        assert [odd * value for value in run_values(k, x, 100)] == expected, x
        for m in range(101):
            assert basis_fractions(FORM_DERIVATIVE, m + 2 * k, x, [k]) == [(k, expected[m])], (m, x)


@pytest.mark.parametrize("form", [FORM_DERIVATIVE, FORM_LEGENDRE])
def test_basis_walks_match_the_per_k_runs(form):
    # One walk per form, stopped at the lowest k asked for, against one oracle
    # run per k: every k, and a stride that leaves out k = 0.
    for n in range(61):
        for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 8), Fraction(5, 2), Fraction(-7, 3)):
            for ks in (range(n // 2 + 1), range(n // 2, 0, -3)):
                values = basis_fractions(form, n, x, ks)
                assert dict(values) == oracle_basis_values(form, n, x, ks), (n, x, ks)
                assert len(values) == len(ks), (n, x, ks)


@pytest.mark.parametrize("form", [FORM_DERIVATIVE, FORM_LEGENDRE])
def test_basis_values_match_the_basis_polynomials(form):
    for n in (0, 1, 2, 3, 9, 40, 101):
        basis = expansion_basis(form, n)
        for x in POINTS:
            expected = {k: part.evaluate(x) for k, part in enumerate(basis)}
            assert dict(basis_fractions(form, n, x, range(n // 2 + 1))) == expected, (n, x)
