"""End-to-end acceptance checks, one test per criterion.

Every check is exact (rational equality, zero tolerance); run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from legscale import (
    DEFAULT_LAMBDAS,
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    NONZERO_LAMBDAS,
    a_coefficient,
    alpha_closed_recurrence,
    b_coefficient,
    deriv_expand_telescoping,
    differentiate,
    legendre_bonnet,
    legendre_murphy,
    legendre_rodrigues,
    project_to_legendre,
    random_lambdas,
    scale_argument,
    verify_derivative_identity,
    verify_replay,
    verify_scaling_identity,
    verify_surplus_rows,
)
from legscale.cli import format_decimal, main

SEED = 1729
SWEEP_LAMBDAS = DEFAULT_LAMBDAS + random_lambdas(20, SEED)


def announce(number: int, ok: bool, elapsed: float, label: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {label}")


@pytest.fixture(scope="module")
def legendre_form_report():
    start = time.perf_counter()
    report = verify_scaling_identity(30, SWEEP_LAMBDAS, FORM_LEGENDRE)
    return report, time.perf_counter() - start


def test_criterion_1_triple_construction_agreement():
    start = time.perf_counter()
    ok = all(
        legendre_bonnet(n) == legendre_rodrigues(n) == legendre_murphy(n) for n in range(41)
    )
    elapsed = time.perf_counter() - start
    announce(1, ok, elapsed, "three Legendre constructions agree exactly for n <= 40")
    assert ok
    assert elapsed < 10.0


def test_criterion_2_derivative_form_exactness():
    start = time.perf_counter()
    report = verify_scaling_identity(30, SWEEP_LAMBDAS, FORM_DERIVATIVE)
    elapsed = time.perf_counter() - start
    announce(2, report.passed, elapsed,
             "derivative-form expansion rebuilds P_n(lambda*x) exactly, n <= 30, 27 lambdas")
    assert report.passed, report.counterexample
    assert elapsed < 60.0


def test_criterion_3_legendre_form_exactness(legendre_form_report):
    report, elapsed = legendre_form_report
    announce(3, report.passed, elapsed,
             "legendre-form expansion rebuilds P_n(lambda*x) exactly and matches "
             "the projection oracle, n <= 30, 27 lambdas")
    assert report.passed, report.counterexample
    assert elapsed < 120.0


def test_criterion_4_three_way_derivative_agreement():
    start = time.perf_counter()
    report = verify_derivative_identity(30)
    elapsed = time.perf_counter() - start
    announce(4, report.passed, elapsed,
             "telescoping = triangular = closed recurrence = formal derivative, 0 <= k <= n <= 30")
    assert report.passed, report.counterexample
    assert elapsed < 60.0


def test_criterion_5_surplus_row_consistency():
    start = time.perf_counter()
    report = verify_surplus_rows(30)
    elapsed = time.perf_counter() - start
    announce(5, report.passed, elapsed,
             "redundant rows of the coefficient-matching system hold, 0 <= k <= n <= 30")
    assert report.passed, report.counterexample


def test_criterion_6_depth_limit_resolution(legendre_form_report):
    report, _ = legendre_form_report
    start = time.perf_counter()
    verdict = report.details.get("limit_variants_agree")
    elapsed = time.perf_counter() - start
    announce(6, verdict is True, elapsed,
             f"truncated and untruncated depth sums compared over the sweep; "
             f"verdict recorded in report: limit_variants_agree={verdict}")
    assert verdict is True


def test_criterion_7_derivation_replay():
    start = time.perf_counter()
    report = verify_replay(20, NONZERO_LAMBDAS)
    elapsed = time.perf_counter() - start
    announce(7, report.passed, elapsed,
             "binomial-expand/differentiate replay equals direct scaling, n <= 20, nonzero lambdas")
    assert report.passed, report.counterexample


def test_criterion_8_numeric_method_agreement(capsys):
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        n = rng.randint(0, 20)
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = rng.randint(-1000, 1000)
        x_text = f"{'-' if m < 0 else ''}{abs(m) // 1000}.{abs(m) % 1000:03d}"
        outputs = set()
        for method in ("direct", "a-form", "b-form"):
            code = main([
                "eval", "--n", str(n), "--lambda", f"{lam.numerator}/{lam.denominator}",
                "--x", x_text, "--method", method, "--digits", "12",
            ])
            outputs.add(capsys.readouterr().out)
            ok = ok and code == 0
        # the Bonnet polynomial evaluated by Horner, a route the CLI no longer runs
        outputs.add(format_decimal(legendre_bonnet(n).evaluate(lam * Fraction(x_text)), 12) + "\n")
        # exact rational evaluation underneath: the printed strings must be
        # identical, which is well inside the 1-ulp-at-12-digits tolerance
        ok = ok and len(outputs) == 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        announce(8, ok, elapsed, "eval methods and Horner on P_n agree to 12 printed digits"
                 " on 200 seeded (n, lambda, x) triples")
    assert ok


def test_criterion_9_hand_checked_anchor_values():
    start = time.perf_counter()
    checks = []
    for lam in DEFAULT_LAMBDAS:
        checks.append(a_coefficient(lam, 1, 0) == lam)
        checks.append(b_coefficient(lam, 2, 1) == (lam * lam - 1) / 2)
    checks.append(deriv_expand_telescoping(3, 1).alphas == (5, 1))
    checks.append(deriv_expand_telescoping(2, 1).alphas == (3,))
    checks.append(alpha_closed_recurrence(3, 1, 1) == 1)
    # each anchor rederived through the projection oracle
    for lam in (Fraction(2), Fraction(-3, 5)):
        checks.append(
            project_to_legendre(scale_argument(legendre_bonnet(1), lam)).coefficient(1) == lam
        )
        checks.append(
            project_to_legendre(scale_argument(legendre_bonnet(2), lam)).coefficient(0)
            == (lam * lam - 1) / 2
        )
    checks.append(
        project_to_legendre(differentiate(legendre_bonnet(3), 1)).terms == {2: 5, 0: 1}
    )
    checks.append(project_to_legendre(differentiate(legendre_bonnet(2), 1)).terms == {1: 3})
    ok = all(checks)
    elapsed = time.perf_counter() - start
    announce(9, ok, elapsed, "hand-checked anchor coefficients hold as exact literals")
    assert ok
