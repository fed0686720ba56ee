from fractions import Fraction
from math import factorial

import pytest

import legscale.derivatives
from legscale import (
    DerivExpansion,
    Poly,
    alpha_closed_recurrence,
    deriv_expand_closed,
    deriv_expand_recurrence,
    deriv_expand_telescoping,
    deriv_expand_triangular,
    differentiate,
    falling_factorial,
    legendre_bonnet,
    murphy_deriv_series,
    to_poly,
)

HALF = Fraction(1, 2)

ROUTES = (
    deriv_expand_telescoping,
    deriv_expand_triangular,
    deriv_expand_recurrence,
    deriv_expand_closed,
)


def z_coefficients(p: Poly, count: int):
    """Test-local oracle: rewrite p(x) in powers of z via x = 1 - 2z."""
    substituted = Poly.zero()
    power = Poly.one()
    step = Poly((1, -2))
    for m, c in enumerate(p.coeffs):
        if m:
            power = power * step
        if c:
            substituted = substituted + c * power
    return tuple(substituted.coefficient(j) for j in range(count))


def shifted_degree_alpha(n: int, k: int, i: int, memo: dict) -> Fraction:
    """Test-local oracle: the recurrence written in the shifted convention
    that expands d^k P_{n-k} directly (coefficient of P_{n-2k-2i})."""
    key = (n, k, i)
    if key not in memo:
        lead = (
            Fraction(2) ** (k + 2 * i)
            * falling_factorial(n - k - HALF, k)
            * falling_factorial(n - k - i, i)
            * falling_factorial(n - 2 * k - HALF, 2 * i)
            / (falling_factorial(2 * i, 2 * i) * falling_factorial(n - k - HALF, i))
        )
        total = Fraction(0)
        for l in range(i):
            total += (
                falling_factorial(2 * (n - 2 * k - i - l), 2 * (i - l))
                / falling_factorial(2 * (i - l), 2 * (i - l))
            ) * shifted_degree_alpha(n, k, l, memo)
        memo[key] = lead - total
    return memo[key]


class TestTelescoping:
    def test_examples(self):
        assert deriv_expand_telescoping(2, 1).alphas == (3,)
        assert deriv_expand_telescoping(3, 1).alphas == (5, 1)

    def test_zeroth_derivative_is_identity(self):
        for n in range(8):
            alphas = deriv_expand_telescoping(n, 0).alphas
            assert alphas[0] == 1
            assert all(a == 0 for a in alphas[1:])

    def test_single_step_coefficients(self):
        # d/dx P_n carries weight 2m+1 on each P_m, m = n-1, n-3, ...
        for n in range(1, 13):
            expansion = deriv_expand_telescoping(n, 1)
            for i, alpha in enumerate(expansion.alphas):
                assert alpha == 2 * expansion.degree_of(i) + 1


class TestMurphySeries:
    def test_degree_one(self):
        assert murphy_deriv_series(1, 0) == (1, -2)  # P_1 = 1 - 2z

    def test_first_derivative_of_degree_two(self):
        # d/dx P_2 = 3x = 3 - 6z under x = 1 - 2z
        assert murphy_deriv_series(2, 1) == (3, -6)

    def test_diagonal_is_constant_derivative(self):
        for n in range(9):
            series = murphy_deriv_series(n, n)
            assert series == (Fraction(factorial(2 * n), 2**n * factorial(n)),)
            constant = differentiate(legendre_bonnet(n), n)
            assert constant.coeffs == series

    def test_matches_substitution_oracle(self):
        for n in range(13):
            for k in range(n + 1):
                expected = z_coefficients(differentiate(legendre_bonnet(n), k), n - k + 1)
                assert murphy_deriv_series(n, k) == expected, (n, k)

    def test_rejects_order_above_degree(self):
        with pytest.raises(ValueError):
            murphy_deriv_series(3, 4)


class TestTriangular:
    def test_examples(self):
        assert deriv_expand_triangular(2, 1).alphas == (3,)
        assert deriv_expand_triangular(3, 2).alphas == (15,)
        assert deriv_expand_triangular(4, 2).alphas == deriv_expand_telescoping(4, 2).alphas

    @pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (1, 1), (7, 2), (12, 3), (40, 0), (40, 39), (41, 6), (3, 4), (2, 5)])
    def test_lone_solve_builds_only_the_z_rows_it_reads(self, monkeypatch, n, k):
        # the solve reads the z-rows of P_{n-k}, P_{n-k-2}, ..., 0 or 1, and
        # the target row of d^k P_n: (n-k)//2 + 2 Murphy rows, none when k > n
        real, calls = legscale.derivatives._murphy_scaled, []

        def counting(m, order):
            calls.append((m, order))
            return real(m, order)

        monkeypatch.setattr(legscale.derivatives, "_murphy_scaled", counting)
        assert deriv_expand_triangular(n, k) == deriv_expand_closed(n, k)
        expected = [(n, k), *((m, 0) for m in range(n - k, -1, -2))] if k <= n else []
        assert sorted(calls) == sorted(expected)
        assert len(calls) == ((n - k) // 2 + 2 if k <= n else 0)


class TestClosedRecurrence:
    def test_examples(self):
        assert alpha_closed_recurrence(2, 1, 0) == 3
        assert alpha_closed_recurrence(3, 1, 1) == 1
        for n in range(8):
            assert alpha_closed_recurrence(n, 0, 0) == 1

    def test_index_validation(self):
        with pytest.raises(ValueError):
            alpha_closed_recurrence(4, 1, 2)  # depth beyond floor((n-k)/2)
        with pytest.raises(ValueError):
            alpha_closed_recurrence(3, 4, 0)

    def test_shifted_convention_agrees(self):
        # The recurrence written for d^k P_{n-k} (shifted degree) must be the
        # same function evaluated at degree n-k.
        memo = {}
        for n in range(31):
            for k in range(n // 2 + 1):
                for i in range((n - 2 * k) // 2 + 1):
                    assert shifted_degree_alpha(n, k, i, memo) == alpha_closed_recurrence(
                        n - k, k, i
                    ), (n, k, i)


class TestClosedForm:
    def test_matches_the_routes_it_replaces(self):
        # The closed form replaced the recurrence on every production path;
        # it must equal the telescoping, the recurrence and the triangular
        # route (whose basis coefficients are updated from one depth to the next).
        for n in range(41):
            for k in range(n + 3):
                closed = deriv_expand_closed(n, k)
                assert closed == deriv_expand_telescoping(n, k), (n, k)
                assert closed == deriv_expand_recurrence(n, k), (n, k)
                assert closed == deriv_expand_triangular(n, k), (n, k)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            deriv_expand_closed(-1, 0)
        with pytest.raises(ValueError):
            deriv_expand_closed(3, -1)


class TestCrossRoute:
    def test_three_way_agreement_and_oracle(self):
        for n in range(15):
            for k in range(n + 1):
                tele = deriv_expand_telescoping(n, k)
                tri = deriv_expand_triangular(n, k)
                recur = deriv_expand_recurrence(n, k)
                assert tele.alphas == tri.alphas == recur.alphas, (n, k)
                assert to_poly(tele.to_series()) == differentiate(legendre_bonnet(n), k)

    def test_zero_above_degree(self):
        # a huge order is answered without running the route
        for route in ROUTES:
            for k in (6, 10 ** 12):
                expansion = route(4, k)
                assert expansion.is_zero
                assert expansion.to_series().is_zero

    def test_parity_structure(self):
        for n in range(13):
            for k in range(n + 1):
                expansion = deriv_expand_telescoping(n, k)
                for m in expansion.to_series().degrees():
                    assert (m - (n - k)) % 2 == 0

    def test_all_alphas_positive(self):
        # Strict positivity holds for every genuine derivative (k >= 1); at
        # k = 0 the expansion is the trivial 1 * P_n followed by exact zeros.
        for n in range(21):
            for k in range(1, n + 1):
                for alpha in deriv_expand_recurrence(n, k).alphas:
                    assert alpha > 0, (n, k)
            trivial = deriv_expand_recurrence(n, 0).alphas
            assert trivial[0] == 1 and all(a == 0 for a in trivial[1:])

    def test_fifth_derivative_of_p5(self):
        expansion = deriv_expand_recurrence(5, 5)
        assert expansion.alphas == (945,)
        assert differentiate(legendre_bonnet(5), 5) == Poly((945,))


class TestDerivExpansionType:
    def test_alpha_lookup_by_degree(self):
        expansion = deriv_expand_telescoping(3, 1)
        assert expansion.alpha_for_degree(2) == 5
        assert expansion.alpha_for_degree(0) == 1
        assert expansion.alpha_for_degree(1) == 0
        assert expansion.alpha_for_degree(4) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DerivExpansion(3, 1, (Fraction(5),))  # one coefficient short
        with pytest.raises(ValueError):
            DerivExpansion(-1, 0, ())

    def test_json_round_trip(self):
        expansion = deriv_expand_telescoping(3, 1)
        data = expansion.to_json()
        assert data == {"n": 3, "k": 1, "alphas": {"2": "5", "0": "1"}}
        assert DerivExpansion.from_json(data) == expansion

    def test_json_empty_expansion(self):
        expansion = deriv_expand_telescoping(2, 5)
        assert expansion.to_json() == {"n": 2, "k": 5, "alphas": {}}
        assert DerivExpansion.from_json(expansion.to_json()) == expansion
