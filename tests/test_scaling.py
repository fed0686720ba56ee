from fractions import Fraction

import pytest

from legscale import (
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    DEFAULT_LAMBDAS,
    Poly,
    ScalingExpansion,
    a_coefficient,
    alpha_nki,
    b_coefficient,
    b_coefficient_untruncated,
    deriv_expand_recurrence,
    deriv_expand_telescoping,
    differentiate,
    expand_derivative_form,
    expand_legendre_form,
    expand_legendre_form_untruncated,
    expansion_basis,
    legendre_bonnet,
    project_to_legendre,
    scale_argument,
)
from legscale.scaling import _basis_values


def rebuild_derivative_form(expansion: ScalingExpansion) -> Poly:
    total = Poly.zero()
    for k, c in enumerate(expansion.coeffs):
        if c:
            total = total + c * differentiate(legendre_bonnet(expansion.n - k), k)
    return total


def rebuild_legendre_form(expansion: ScalingExpansion) -> Poly:
    total = Poly.zero()
    for k, c in enumerate(expansion.coeffs):
        if c:
            total = total + c * legendre_bonnet(expansion.n - 2 * k)
    return total


class TestACoefficients:
    @pytest.mark.parametrize("lam", DEFAULT_LAMBDAS)
    def test_degree_one_is_lambda(self, lam):
        assert a_coefficient(lam, 1, 0) == lam

    def test_identity_scaling(self):
        for n in range(9):
            for k in range(n // 2 + 1):
                assert a_coefficient(1, n, k) == (1 if k == 0 else 0)

    def test_hand_value(self):
        assert a_coefficient(2, 2, 1) == Fraction(3, 2)

    def test_expand_examples(self):
        assert expand_derivative_form(Fraction(5, 7), 0).coeffs == (1,)
        assert expand_derivative_form(2, 2).coeffs == (4, Fraction(3, 2))
        for n in range(7):
            coeffs = expand_derivative_form(-1, n).coeffs
            assert coeffs[0] == (-1) ** n
            assert all(c == 0 for c in coeffs[1:])

    def test_index_validation(self):
        with pytest.raises(ValueError):
            a_coefficient(2, 3, 2)  # k beyond floor(n/2)
        with pytest.raises(ValueError):
            a_coefficient(2, -1, 0)

    def test_reconstruction_sweep(self):
        for n in range(13):
            for lam in DEFAULT_LAMBDAS:
                expansion = expand_derivative_form(lam, n)
                assert rebuild_derivative_form(expansion) == scale_argument(
                    legendre_bonnet(n), lam
                ), (n, lam)


class TestAlphaNki:
    def test_hand_values(self):
        assert alpha_nki(2, 1, 0) == 1
        for n in range(8):
            assert alpha_nki(n, 0, 0) == 1

    def test_diagonal_vanishes(self):
        # depth i = k corresponds to expanding a zeroth derivative, so the
        # weight must be exactly zero for every k >= 1
        for n in range(2, 17):
            for k in range(1, n // 2 + 1):
                assert alpha_nki(n, k, k) == 0, (n, k)

    def test_matches_derivative_expansion_coefficient(self):
        # alpha_nki(n, k, i) is the coefficient of P_{n-2k} in the expansion
        # of d^(k-i) P_{n-k+i}; the telescoping route is the oracle
        expansions = {}
        for n in range(31):
            for k in range(n // 2 + 1):
                for i in range(k + 1):
                    key = (n - k + i, k - i)
                    if key not in expansions:
                        expansions[key] = deriv_expand_telescoping(*key)
                    expected = expansions[key].alpha_for_degree(n - 2 * k)
                    assert alpha_nki(n, k, i) == expected, (n, k, i)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            alpha_nki(4, 1, 2)  # i > k
        with pytest.raises(ValueError):
            alpha_nki(4, 3, 0)  # k > floor(n/2)


class TestBCoefficients:
    @pytest.mark.parametrize("lam", DEFAULT_LAMBDAS)
    def test_leading_coefficient_is_lambda_power(self, lam):
        for n in range(9):
            assert b_coefficient(lam, n, 0) == lam**n

    @pytest.mark.parametrize("lam", DEFAULT_LAMBDAS)
    def test_degree_two_depth_one(self, lam):
        assert b_coefficient(lam, 2, 1) == (lam * lam - 1) / 2

    def test_identity_scaling(self):
        for n in range(9):
            for k in range(n // 2 + 1):
                assert b_coefficient(1, n, k) == (1 if k == 0 else 0)

    def test_expand_examples(self):
        assert expand_legendre_form(Fraction(-3, 5), 1).coeffs == (Fraction(-3, 5),)
        assert expand_legendre_form(2, 2).coeffs == (4, Fraction(3, 2))
        assert expand_legendre_form(0, 2).coeffs == (0, Fraction(-1, 2))

    def test_reconstruction_sweep(self):
        for n in range(13):
            for lam in DEFAULT_LAMBDAS:
                expansion = expand_legendre_form(lam, n)
                assert rebuild_legendre_form(expansion) == scale_argument(
                    legendre_bonnet(n), lam
                ), (n, lam)

    def test_matches_projection_oracle(self):
        for n in range(11):
            for lam in DEFAULT_LAMBDAS:
                projected = project_to_legendre(scale_argument(legendre_bonnet(n), lam))
                for k in range(n // 2 + 1):
                    assert b_coefficient(lam, n, k) == projected.coefficient(n - 2 * k), (n, lam, k)

    def test_truncated_and_full_sums_agree(self):
        for n in range(13):
            for lam in (Fraction(2), Fraction(-3, 5), Fraction(0)):
                assert (
                    expand_legendre_form(lam, n).coeffs
                    == expand_legendre_form_untruncated(lam, n).coeffs
                )
        assert b_coefficient(Fraction(7, 3), 8, 4) == b_coefficient_untruncated(Fraction(7, 3), 8, 4)

    def test_composition_through_derivative_expansions(self):
        # regrouping the derivative form through d^k P_{n-k} expansions must
        # land on the same legendre-form coefficients, over the full sweep
        for n in range(31):
            inners = [deriv_expand_recurrence(n - k, k) for k in range(n // 2 + 1)]
            for lam in DEFAULT_LAMBDAS:
                a_form = expand_derivative_form(lam, n)
                regrouped = [Fraction(0)] * (n // 2 + 1)
                for k, a_k in enumerate(a_form.coeffs):
                    if not a_k:
                        continue
                    for i, alpha in enumerate(inners[k].alphas):
                        regrouped[k + i] += a_k * alpha
                assert tuple(regrouped) == expand_legendre_form(lam, n).coeffs, (n, lam)

    def test_group_property(self):
        # expanding with lam then mu equals expanding once with lam*mu
        pairs = [
            (Fraction(2), Fraction(1, 2)),
            (Fraction(-3, 5), Fraction(7, 3)),
            (Fraction(1, 2), Fraction(3)),
        ]
        for n in range(9):
            for lam, mu in pairs:
                outer = expand_legendre_form(lam, n)
                collected = [Fraction(0)] * (n // 2 + 1)
                for k, c in enumerate(outer.coeffs):
                    inner = expand_legendre_form(mu, n - 2 * k)
                    for j, d in enumerate(inner.coeffs):
                        collected[k + j] += c * d
                assert tuple(collected) == expand_legendre_form(lam * mu, n).coeffs, (n, lam, mu)

    def test_polynomial_identity_in_lambda(self):
        # b is a polynomial of degree <= n in lambda, so agreement with the
        # projection oracle at floor(n/2) + n + 1 distinct points certifies
        # the identity for every lambda
        n = 9
        points = [Fraction(j - 7, 5) for j in range(n // 2 + n + 1)]
        assert len(set(points)) == len(points)
        for lam in points:
            projected = project_to_legendre(scale_argument(legendre_bonnet(n), lam))
            for k in range(n // 2 + 1):
                assert b_coefficient(lam, n, k) == projected.coefficient(n - 2 * k)


class TestScalingExpansionType:
    def test_coeffs_are_dense(self):
        expansion = expand_derivative_form(1, 6)
        assert len(expansion.coeffs) == 4
        assert expansion.coefficient(0) == 1
        assert expansion.coefficient(3) == 0
        with pytest.raises(ValueError):
            expansion.coefficient(4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScalingExpansion(Fraction(1), 4, FORM_LEGENDRE, (Fraction(1),))
        with pytest.raises(ValueError):
            ScalingExpansion(Fraction(1), 2, "monomial", (Fraction(1), Fraction(0)))

    def test_json_round_trip(self):
        expansion = expand_legendre_form(2, 2)
        data = expansion.to_json()
        assert data == {
            "lambda": "2",
            "n": 2,
            "form": "legendre",
            "coeffs": {"0": "4", "1": "3/2"},
        }
        assert ScalingExpansion.from_json(data) == expansion

    def test_json_keeps_zeros(self):
        data = expand_legendre_form(0, 2).to_json()
        assert data["coeffs"] == {"0": "0", "1": "-1/2"}

    def test_forms_tagged(self):
        assert expand_derivative_form(2, 3).form == FORM_DERIVATIVE
        assert expand_legendre_form(2, 3).form == FORM_LEGENDRE


class TestExpansionBasis:
    def test_convention(self):
        for n in range(61):
            derivative = expansion_basis(FORM_DERIVATIVE, n)
            legendre = expansion_basis(FORM_LEGENDRE, n)
            ks = range(n // 2 + 1)
            assert derivative == tuple(differentiate(legendre_bonnet(n - k), k) for k in ks)
            assert legendre == tuple(legendre_bonnet(n - 2 * k) for k in ks)

    @pytest.mark.parametrize("form", [FORM_DERIVATIVE, FORM_LEGENDRE])
    def test_sparse_and_empty_ks(self, form):
        # The pointwise basis values, for any subset of k, are the basis
        # polynomials evaluated at the point, each as an unreduced int pair.
        basis = expansion_basis(form, 40)
        x = Fraction(-7, 5)

        def values(n, ks):
            return [(k, Fraction(num, den)) for k, num, den in _basis_values(form, n, x, ks)]

        assert dict(values(40, [20, 0, 7])) == {k: basis[k].evaluate(x) for k in (0, 7, 20)}
        assert dict(values(40, [13])) == {13: basis[13].evaluate(x)}
        assert values(40, []) == []
        assert list(_basis_values(form, 0, x, [0])) == [(0, 1, 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            expansion_basis("monomial", 2)
        with pytest.raises(ValueError):
            expansion_basis(FORM_LEGENDRE, -1)
