from fractions import Fraction
from math import comb

import pytest

import legscale.derivatives
import legscale.scaling
import legscale.verify
from legscale import (
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    DEFAULT_LAMBDAS,
    NONZERO_LAMBDAS,
    Poly,
    VerificationReport,
    expand_derivative_form,
    expand_legendre_form,
    expansion_basis,
    legendre_bonnet,
    random_lambdas,
    replay_rodrigues_derivation,
    scale_argument,
    verify_derivative_identity,
    verify_recurrence_vs_telescoping,
    verify_replay,
    verify_scaling_identity,
    verify_surplus_rows,
)
from legscale.derivatives import _alpha_values, _triangular
from legscale.polynomials import _projection, _rodrigues_row
from legscale.rationals import format_rational
from legscale.scaling import _derivative_form


class TestSweepsPass:
    def test_scaling_identity_single_lambda(self):
        report = verify_scaling_identity(10, (Fraction(2),), FORM_LEGENDRE)
        assert report.passed
        assert report.status == "pass"
        assert report.counterexample is None

    def test_scaling_identity_trivial_lambdas(self):
        for lam in (1, -1):
            for form in (FORM_DERIVATIVE, FORM_LEGENDRE):
                assert verify_scaling_identity(10, (lam,), form).passed

    def test_scaling_identity_default_sweep(self):
        assert verify_scaling_identity(12, DEFAULT_LAMBDAS, FORM_DERIVATIVE).passed
        report = verify_scaling_identity(12, DEFAULT_LAMBDAS, FORM_LEGENDRE)
        assert report.passed
        assert report.details["limit_variants_agree"] is True

    def test_derivative_identity(self):
        assert verify_derivative_identity(12).passed

    def test_derivative_identity_builds_each_z_row_once(self, monkeypatch):
        # The sweep hands every triangular solve the z-rows of P_0 ... P_N,
        # built once: one Murphy series per case for the solve's target,
        # plus N+1 rows, where rows built per (n, k) would grow like N^3.
        real, calls = legscale.derivatives._murphy_scaled, []

        def counting(n, k):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(legscale.derivatives, "_murphy_scaled", counting)
        report = verify_derivative_identity(80)
        assert report.passed and report.cases == 3483  # k <= n+2 for n <= 80
        assert len(calls) == 3483 + 81
        assert calls[:81] == [(m, 0) for m in range(81)]

    def test_surplus_rows(self):
        assert verify_surplus_rows(10).passed

    def test_recurrence_vs_telescoping(self):
        assert verify_recurrence_vs_telescoping(12).passed

    def test_replay(self):
        assert verify_replay(10, NONZERO_LAMBDAS).passed

    def test_empty_lambda_set_rejected(self):
        with pytest.raises(ValueError):
            verify_scaling_identity(5, ())

    def test_a_nonzero_untruncated_weight_flips_the_limit_verdict(self, monkeypatch):
        # A mutant whose depth-k weight alpha_nki(n, k, k), entry k of Doha's
        # k = 0 row, (2(n-2k)+1) C(k-1, k), is not zero: the untruncated depth
        # sums differ, while the truncated ones, which the reconstruction and
        # the projection check, stay right.
        monkeypatch.setattr(legscale.scaling, "comb", lambda a, b: 1 if b == a + 1 else comb(a, b))
        report = verify_scaling_identity(6, (Fraction(2), Fraction(-3, 5)), FORM_LEGENDRE)
        assert report.passed
        assert report.details["limit_variants_agree"] is False

    def test_the_limit_verdict_reads_the_depth_k_entry_of_dohas_row(self, monkeypatch):
        # eq13 reads the depth-k weight from `_doha_alphas(n, 0)`, not from the
        # Horner sum: a nonzero entry there flips only the verdict. At lambda 0
        # the depth-k terms lam^n alpha are zero, so the verdict holds.
        real = legscale.verify._doha_alphas
        monkeypatch.setattr(legscale.verify, "_doha_alphas",
                            lambda n, k: [1] + [1] * (n // 2) if k == 0 else real(n, k))
        report = verify_scaling_identity(6, (Fraction(2), Fraction(-3, 5)), FORM_LEGENDRE)
        assert report.passed and report.cases == 7 * 2
        assert report.details["limit_variants_agree"] is False
        report = verify_scaling_identity(6, (Fraction(0),), FORM_LEGENDRE)
        assert report.passed and report.details["limit_variants_agree"] is True

    def test_the_untruncated_weights_read_the_depth_k_entry_of_dohas_row(self, monkeypatch):
        # The untruncated b_k is b_k + lam^n alpha_nki(n, k, k), the alpha read
        # from `_doha_alphas(n, 0)`: a nonzero entry there moves only it.
        real = legscale.scaling._doha_alphas
        monkeypatch.setattr(legscale.scaling, "_doha_alphas",
                            lambda n, k: [1] + [1] * (n // 2) if k == 0 else real(n, k))
        lam = Fraction(2)
        truncated = legscale.scaling.expand_legendre_form(lam, 6).coeffs
        untruncated = legscale.scaling.expand_legendre_form_untruncated(lam, 6).coeffs
        assert untruncated[0] == truncated[0] == 64
        assert untruncated[1:] == tuple(b + 64 for b in truncated[1:])

    @pytest.mark.parametrize("form", (FORM_DERIVATIVE, FORM_LEGENDRE))
    def test_passing_sweep_builds_no_fraction(self, monkeypatch, form):
        # The claims are compared as the integer cores' ints: once the
        # lambdas are clean Fractions, a passing sweep builds none.
        lambdas = (Fraction(7, 3), Fraction(-20, 7))
        real_new, built = Fraction.__new__, []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        Fraction(1, 2)  # the count sees a Fraction built here
        assert len(built) == 1
        report = verify_scaling_identity(12, lambdas, form)
        assert report.passed and report.cases == 13 * 2
        assert built == [(1, 2)]


class TestReplay:
    def test_examples(self):
        assert replay_rodrigues_derivation(2, 3) == scale_argument(legendre_bonnet(3), 2)
        for n in range(8):
            assert replay_rodrigues_derivation(1, n) == legendre_bonnet(n)
        lam = Fraction(1, 2)
        assert replay_rodrigues_derivation(lam, 4) == scale_argument(legendre_bonnet(4), lam)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            replay_rodrigues_derivation(0, 3)
        with pytest.raises(ValueError):
            verify_replay(5, (Fraction(1), Fraction(0)))


def _bump_first_alpha(core, bad_cases):
    """The integer route `core` with alphas[0] off by one at the (n, k) in `bad_cases`."""

    def corrupted(n, k, *rest):
        alphas = core(n, k, *rest)
        return [alphas[0] + 1] + alphas[1:] if (n, k) in bad_cases else alphas

    return corrupted


def _bump_a0(bad_degrees):
    """The derivative-form core with a_0 off by one at the n in `bad_degrees`."""

    def corrupted(p, q, n):
        rows = list(_derivative_form(p, q, n))
        if n in bad_degrees:
            num, den = rows[0]
            rows[0] = (num + den, den)
        return rows

    return corrupted


def _poly_sum(coeffs, parts):
    """sum_k coeffs[k] * parts[k] in `Poly` arithmetic."""
    total = Poly.zero()
    for c, part in zip(coeffs, parts):
        total = total + c * part
    return total


def _dumps(claimed, target):
    """Both sides' monomial coefficients, zero-padded, as the `Poly` sweeps printed them."""
    width = max(len(claimed.coeffs), len(target.coeffs), 1)
    return [[format_rational(p.coefficient(m)) for m in range(width)] for p in (claimed, target)]


class TestReportMachinery:
    def test_status_consistency_enforced(self):
        with pytest.raises(ValueError):
            VerificationReport(
                subject="x",
                n_range=(0, 1),
                k_range=None,
                lambdas=None,
                passed=False,
                counterexample=None,
            )

    def test_json_shape(self):
        report = verify_scaling_identity(4, (Fraction(1, 2),), FORM_LEGENDRE)
        data = report.to_json()
        assert data["subject"] == "eq13"
        assert data["status"] == "pass"
        assert data["n_range"] == [0, 4]
        assert data["lambdas"] == ["1/2"]
        assert data["counterexample"] is None
        assert data["details"] == {"limit_variants_agree": True}

    def test_counterexample_records_first_failure(self, monkeypatch):
        monkeypatch.setattr(legscale.verify, "_derivative_form", _bump_a0({3, 5}))
        report = verify_scaling_identity(8, (Fraction(2),), FORM_DERIVATIVE)
        assert not report.passed
        assert report.status == "fail"
        example = report.counterexample
        assert example is not None
        assert example.params["n"] == 3  # lowest failing case wins
        assert example.params["lambda"] == "2"
        assert len(example.lhs) == len(example.rhs) > 0
        assert example.lhs != example.rhs

    def test_counterexample_json(self, monkeypatch):
        monkeypatch.setattr(legscale.verify, "_derivative_form", _bump_a0({2}))
        report = verify_scaling_identity(4, (Fraction(1, 2),), FORM_DERIVATIVE)
        data = report.to_json()
        assert data["status"] == "fail"
        assert data["counterexample"]["params"]["n"] == 2
        assert isinstance(data["counterexample"]["lhs"], list)

    # One route corrupted at two cases: the report names the earlier one in
    # sweep order. Where a suite has an inner index, the later case has the
    # smaller one, which tells n-major order from any other. Each patch
    # replaces the integer core that verify reads, where verify looks it up.

    def test_first_failure_eq13_projection(self, monkeypatch):
        def corrupted(nums, den, rows):  # the target's numerators x^0 ... x^n over den
            terms = _projection(nums, den, rows)
            if len(nums) - 1 in (3, 5):  # c_0 + 1
                head = terms[0] if terms and terms[0][0] == 0 else (0, 0, 1)
                terms = [(0, head[1] + head[2], head[2])] + [t for t in terms if t[0]]
            return terms

        monkeypatch.setattr(legscale.verify, "_projection", corrupted)
        report = verify_scaling_identity(8, (Fraction(2),), FORM_LEGENDRE)
        assert report.status == "fail"
        assert report.counterexample.params == {"n": 3, "lambda": "2", "check": "projection"}

    def test_first_failure_eq19_route_mismatch(self, monkeypatch):
        corrupted = _bump_first_alpha(_alpha_values, {(3, 2), (4, 1)})
        monkeypatch.setattr(legscale.derivatives, "_alpha_values", corrupted)
        report = verify_derivative_identity(6)
        assert report.status == "fail"
        assert report.counterexample.params == {
            "n": 3, "k": 2, "check": "telescoping-vs-recurrence"
        }
        assert report.cases == 3 + 4 + 5 + 3  # k <= n+2 for n < 3, then k = 0, 1, 2

    def test_eq19_solves_with_the_z_rows_it_builds(self, monkeypatch):
        # One wrong entry in the z-row of P_3 that the sweep hands the solve
        # leaves the z^3 pivot exact and breaks the division for the next
        # unknown of (n, k) = (3, 0): the solve reads no row of its own. The
        # sweep builds its rows first, so the first (3, 0) call makes the row
        # and the later one the solve's target, which stays exact.
        real, done = legscale.derivatives._murphy_scaled, []

        def corrupted(n, k):
            row = real(n, k)
            if (n, k) != (3, 0) or done:
                return row
            done.append((n, k))
            return row[:1] + [row[1] + 1] + row[2:]

        monkeypatch.setattr(legscale.derivatives, "_murphy_scaled", corrupted)
        with pytest.raises(ArithmeticError, match=r"inexact unknown 1 for \(n, k\) = \(3, 0\)"):
            verify_derivative_identity(6)

    def test_first_failure_eq24_rows(self, monkeypatch):
        corrupted = _bump_first_alpha(_triangular, {(3, 1), (4, 0)})
        monkeypatch.setattr(legscale.derivatives, "_triangular", corrupted)
        report = verify_surplus_rows(6)
        assert report.subject == "eq24-rows"
        assert report.status == "fail"
        assert report.counterexample.params == {"n": 3, "k": 1, "row": 1, "check": "surplus-row"}

    def test_first_failure_eq26(self, monkeypatch):
        corrupted = _bump_first_alpha(_alpha_values, {(3, 2), (4, 1)})
        monkeypatch.setattr(legscale.derivatives, "_alpha_values", corrupted)
        report = verify_recurrence_vs_telescoping(6)
        assert report.status == "fail"
        assert report.counterexample.params == {
            "n": 3, "k": 2, "check": "recurrence-vs-telescoping"
        }

    def test_first_failure_replay(self, monkeypatch):
        bad_cases = {(2, Fraction(1, 2)), (3, Fraction(2))}

        def corrupted(p, q, n):  # the lowest-degree entry + 1: P_2(x/2) + 1 at (2, 1/2)
            row, den = _rodrigues_row(p, q, n)
            return (row[:-1] + [row[-1] + den], den) if (n, Fraction(p, q)) in bad_cases else (row, den)

        monkeypatch.setattr(legscale.verify, "_rodrigues_row", corrupted)
        report = verify_replay(5, (Fraction(2), Fraction(1, 2)))
        assert report.status == "fail"
        assert report.counterexample.params == {"n": 2, "lambda": "1/2", "check": "replay"}
        target = scale_argument(legendre_bonnet(2), Fraction(1, 2))  # the replay, uncorrupted
        assert [list(report.counterexample.lhs), list(report.counterexample.rhs)] == _dumps(target + Poly.one(), target)

    # One entry of one integer row corrupted at two cases: the report names
    # the earlier one and dumps the `Poly` values the sweeps compared before
    # they compared rows.

    def test_first_failure_eq9_basis_row(self, monkeypatch):
        real = legscale.verify._basis_rows

        def corrupted(form, n, rows):  # d P_{n-1} + x^(n-2) / 2^n
            basis = real(form, n, rows)
            if n in (4, 6):
                basis[1][1] += 1
            return basis

        monkeypatch.setattr(legscale.verify, "_basis_rows", corrupted)
        lam, n = Fraction(1, 2), 4
        report = verify_scaling_identity(8, (lam, Fraction(2)), FORM_DERIVATIVE)
        assert report.status == "fail" and report.cases == 4 * 2 + 1
        assert report.counterexample.params == {"n": 4, "lambda": "1/2", "check": "reconstruction"}
        parts = list(expansion_basis(FORM_DERIVATIVE, n))
        parts[1] = parts[1] + Poly.monomial(n - 2, Fraction(1, 2 ** n))
        rebuilt = _poly_sum(expand_derivative_form(lam, n).coeffs, parts)
        expected = _dumps(rebuilt, scale_argument(legendre_bonnet(n), lam))
        assert [list(report.counterexample.lhs), list(report.counterexample.rhs)] == expected

    def test_first_failure_eq13_target_row(self, monkeypatch):
        real, bad_cases = legscale.verify._scaled_row, {(2, Fraction(1, 2)), (3, Fraction(2))}

        def corrupted(row, n, p, q):  # P_n(lam x) + x^n
            target, den = real(row, n, p, q)
            return ([target[0] + den] + target[1:], den) if (n, Fraction(p, q)) in bad_cases else (target, den)

        monkeypatch.setattr(legscale.verify, "_scaled_row", corrupted)
        lam, n = Fraction(1, 2), 2
        report = verify_scaling_identity(5, (Fraction(2), lam), FORM_LEGENDRE)
        assert report.status == "fail" and report.cases == 2 * 2 + 2
        assert report.counterexample.params == {"n": 2, "lambda": "1/2", "check": "reconstruction"}
        rebuilt = _poly_sum(expand_legendre_form(lam, n).coeffs, expansion_basis(FORM_LEGENDRE, n))
        target = scale_argument(legendre_bonnet(n), lam) + Poly.monomial(n)
        assert [list(report.counterexample.lhs), list(report.counterexample.rhs)] == _dumps(rebuilt, target)


class TestRandomLambdas:
    def test_reproducible(self):
        assert random_lambdas(20, 7) == random_lambdas(20, 7)
        assert random_lambdas(20, 7) != random_lambdas(20, 8)

    def test_bounds(self):
        for value in random_lambdas(200, 13):
            assert abs(value.numerator) <= 9
            assert 1 <= value.denominator <= 9
