"""Brute-force verification engines.

Every check reconstructs a claimed expansion with generic polynomial
machinery (basis construction, formal derivatives, argument scaling, exact
integrals) and compares it coefficient by coefficient against an
independently computed target. The claims come from the integer cores that
the public whole-expansion functions wrap, never from the scalar coefficient
formulas (`a_coefficient`, `b_coefficient`, `alpha_*`); eq13's untruncated
depth terms come from Doha's k = 0 row, and the replay is the Rodrigues core
`legendre_rodrigues` shares. The target side is built from polynomial
primitives alone. One driver records each suite's first failing case in
sweep order with full coefficient dumps of both sides: an index-convention
slip is the likeliest failure, and raw dumps localize it. A passing case
builds no Fraction.

The `verify` command lives here beside the sweeps and writes its reports as
JSON text. Its `cli` names and the derivative routes are imported where they
are read, so importing this module loads neither `cli`, `argparse` nor `json`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .polynomials import (
    Poly, _basis, _bonnet_poly, _bonnet_rows, _combination, _projection, _scaled_rodrigues, differentiate,
    scale_argument,
)
from .rationals import RationalLike, Record, as_rational, format_rational
from .scaling import FORM_DERIVATIVE, FORM_LEGENDRE, _derivative_form, _doha_alphas, _legendre_form

if TYPE_CHECKING:
    import argparse

__all__ = [
    "DEFAULT_LAMBDAS",
    "NONZERO_LAMBDAS",
    "Counterexample",
    "VerificationReport",
    "verify_scaling_identity",
    "verify_derivative_identity",
    "verify_surplus_rows",
    "verify_recurrence_vs_telescoping",
    "verify_replay",
    "replay_rodrigues_derivation",
    "random_lambdas",
]

# Default sweep: zero, the two fixed points of scaling, and assorted
# integer / non-integer rationals of both signs.
DEFAULT_LAMBDAS: Tuple[Fraction, ...] = tuple(
    Fraction(s) for s in ("0", "1", "-1", "2", "1/2", "-3/5", "7/3")
)
NONZERO_LAMBDAS: Tuple[Fraction, ...] = tuple(v for v in DEFAULT_LAMBDAS if v != 0)
_MAX_NUMERATOR = _MAX_DENOMINATOR = 9  # `random_lambdas` draws p/q, |p| <= 9, 1 <= q <= 9


class Counterexample(Record):
    """Failing parameters plus the full coefficient lists of both sides."""

    __slots__ = ("params", "lhs", "rhs")
    params: Dict[str, object]
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"params": dict(self.params), "lhs": list(self.lhs), "rhs": list(self.rhs)}


class VerificationReport(Record):
    """Outcome of one verification sweep; passed iff no counterexample.

    ``cases`` counts the cases the sweep checked (up to and including the
    first failing one). `to_json` leaves it out, so the structured report
    is the same whatever the count. ``details`` defaults to a new empty
    dict and ``cases`` to 0.
    """

    __slots__ = (
        "subject", "n_range", "k_range", "lambdas", "passed", "counterexample", "details", "cases"
    )
    _defaults = {"details": dict, "cases": int}
    subject: str
    n_range: Tuple[int, int]
    k_range: Optional[Tuple[int, int]]
    lambdas: Optional[Tuple[Fraction, ...]]
    passed: bool
    counterexample: Optional[Counterexample]
    details: Dict[str, object]
    cases: int

    def __post_init__(self) -> None:
        if self.passed != (self.counterexample is None):
            raise ValueError("passed must hold exactly when no counterexample is recorded")

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "n_range": list(self.n_range),
            "k_range": list(self.k_range) if self.k_range is not None else None,
            "lambdas": [format_rational(v) for v in self.lambdas] if self.lambdas is not None else None,
            "status": self.status,
            "counterexample": self.counterexample.to_json() if self.counterexample else None,
            "details": dict(self.details),
        }


def _poly_mismatch(params: Dict[str, object], claimed: Poly, target: Poly) -> Counterexample:
    """Both sides' monomial coefficients as strings, zero-padded to a common width."""
    width = max(len(claimed.coeffs), len(target.coeffs), 1)
    lhs, rhs = (tuple(format_rational(p.coefficient(m)) for m in range(width)) for p in (claimed, target))
    return Counterexample(params, lhs, rhs)


def _clean_lambdas(lambdas: Sequence[RationalLike]) -> Tuple[Fraction, ...]:
    values = tuple(as_rational(v) for v in lambdas)
    if not values:
        raise ValueError("lambda set must be nonempty")
    return values


def _report(
    n_max: int, cases: Iterable[tuple], checks: Dict[str, Callable[..., object]],
    k_range: Optional[Tuple[int, int]], lambdas: Optional[Tuple[Fraction, ...]] = None,
    details: Optional[Dict[str, object]] = None,
) -> List[VerificationReport]:
    """Run each subject's check (one case's parameters -> None, a
    counterexample, or False for a case outside the subject's range) over one
    stream of `cases` (n = 0 ... n_max); each subject stops at its first
    failure and reports it and the cases it checked up to it. `details` is
    read after the sweep, so a check may record in it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    live, found, counts = dict(checks), {}, dict.fromkeys(checks, 0)
    for params in cases:
        for subject, check in list(live.items()):
            outcome = check(*params)
            if outcome is not False:
                counts[subject] += 1
                if outcome is not None:
                    found[subject] = outcome
                    del live[subject]
        if not live:
            break
    return [
        VerificationReport(subject, (0, n_max), k_range, lambdas, subject not in found, found.get(subject),
                           dict(details or ()), counts[subject])
        for subject in checks
    ]


def verify_scaling_identity(
    n_max: int,
    lambdas: Sequence[RationalLike] = DEFAULT_LAMBDAS,
    form: str = FORM_LEGENDRE,
) -> VerificationReport:
    """Check every claimed expansion of P_n(lam*x) against direct scaling.

    For each (n, lam) the claimed coefficients are recombined with freshly
    built basis polynomials and compared with scale_argument(P_n, lam). In
    the legendre form the coefficients are additionally matched one by one
    against exact-projection values, and the truncated/untruncated depth
    sums, which differ by lam^n times entries 1 ... floor(n/2) of Doha's k = 0
    row, are compared, with the verdict recorded under details["limit_variants_agree"].
    """
    if form not in (FORM_DERIVATIVE, FORM_LEGENDRE):
        raise ValueError(f"unknown form {form!r}")
    values = _clean_lambdas(lambdas)
    legendre = form == FORM_LEGENDRE
    details: Dict[str, object] = {"limit_variants_agree": True} if legendre else {}

    def check(n: int, p_n: Poly, parts: Tuple[Poly, ...], lam: Fraction) -> Optional[Counterexample]:
        p, q = lam.numerator, lam.denominator
        target = scale_argument(p_n, lam)
        weights = list((_legendre_form if legendre else _derivative_form)(p, q, n))
        if legendre and p and any(_doha_alphas(n, 0)[1:]):
            details["limit_variants_agree"] = False
        rebuilt = _combination(weights, parts)
        if rebuilt != target:
            return _poly_mismatch(_lambda_params(n, lam, "reconstruction"), rebuilt, target)
        if legendre:
            claimed = [(n - 2 * k, num, den) for k, (num, den) in enumerate(weights) if num][::-1]
            projected = _projection(target, bonnet_rows)
            if len(claimed) != len(projected) or any(
                m != m2 or num * den2 != num2 * den
                for (m, num, den), (m2, num2, den2) in zip(claimed, projected)
            ):
                return Counterexample(
                    _lambda_params(n, lam, "projection"), _series_dump(claimed, n), _series_dump(projected, n)
                )
        return None

    # One Bonnet walk serves every P_n, basis and projection; each n's are shared by every lambda.
    bonnet_rows = [row for _, row in zip(range(n_max + 1), _bonnet_rows())]
    cases = (
        (n, p_n, parts, lam)
        for n, row in enumerate(bonnet_rows)
        for p_n, parts in ((_bonnet_poly(n, row), _basis(form, n, bonnet_rows)),)
        for lam in values
    )
    subject = "eq13" if legendre else "eq9"
    return _report(n_max, cases, {subject: check}, (0, n_max // 2), values, details)[0]


def _legendre_polys(n_max: int) -> List[Poly]:
    """P_0 ... P_n_max from one walk of the Bonnet rows."""
    return [_bonnet_poly(m, row) for m, row in zip(range(n_max + 1), _bonnet_rows())]


def _lambda_params(n: int, lam: Fraction, check: str) -> Dict[str, object]:
    return {"n": n, "lambda": format_rational(lam), "check": check}


def _series_dump(terms: Sequence[Tuple[int, int, int]], n: int) -> Tuple[str, ...]:
    """Coefficients of P_0 ... P_n from ascending (m, numerator, denominator) terms."""
    by_degree = {m: Fraction(num, den) for m, num, den in terms}
    return tuple(format_rational(by_degree.get(m, 0)) for m in range(n + 1))


def _alphas_dump(alphas: Sequence[int], den: int = 1) -> Tuple[str, ...]:
    return tuple(format_rational(Fraction(a, den)) for a in alphas)


def _z_form(p: Poly, width: int) -> Tuple[Tuple[int, ...], int]:
    """Coefficients z^0 ... z^(width-1) of p in powers of z, where x = 1 - 2z,
    as int numerators over one denominator: with p = sum_m N_m x^m / D,
    x^m = sum_j C(m,j) (-2z)^j gives the z^j numerator
    (-2)^j sum_{m>=j} N_m C(m,j) over D, C(m,j) stepped along m by the exact
    C(m+1,j) = C(m,j) (m+1) / (m+1-j).
    """
    nums, den = p.integer_form
    out = []
    for j in range(width):
        total, binom = 0, 1  # C(m, j) at m = j
        for m in range(j, len(nums)):
            total += nums[m] * binom
            binom = binom * (m + 1) // (m + 1 - j)
        out.append((-2) ** j * total)
    return tuple(out), den


def _derivative_reports(n_max: int, subjects: Sequence[str]) -> List[VerificationReport]:
    """The reports of `subjects` (eq19, eq24-rows, eq26-vs-telescoping) from one
    pass over (n, k <= n, and n+1, n+2 for eq19) that builds each route and d^k P_n
    once a case, and only the routes (imported here: eq9, eq13 and the replay
    never load them), derivatives, P_m and z-rows a subject reads.
    """
    from .derivatives import _alpha_values, _murphy_scaled, _telescoping, _triangular

    telescope = not {"eq19", "eq26-vs-telescoping"}.isdisjoint(subjects)
    solve = not {"eq19", "eq24-rows"}.isdisjoint(subjects)
    legendre = _legendre_polys(n_max) if solve else []
    murphy_rows = [_murphy_scaled(m, 0) for m in range(n_max + 1)] if solve else []
    z_rows = []  # eq24-rows' own: P_m in powers of z by substitution
    for m, p_m in enumerate(legendre if "eq24-rows" in subjects else ()):
        nums, den = _z_form(p_m, m + 1)
        if any(c % den for c in nums):
            raise ArithmeticError(f"P_{m} has a z-coefficient that is not an integer")
        z_rows.append([c // den for c in nums])

    def derivative(n, k, tele, scaled, recur, derived):  # int alphas: telescoping, 2^k triangular, recurrence
        routes = (
            ("triangular", scaled, [a << k for a in tele], 2 ** k),
            ("recurrence", recur, tele, 1),
            ("closed", _doha_alphas(n, k), tele, 1),
        )
        for name, claimed, expected, den in routes:
            if claimed != expected:
                return Counterexample(
                    {"n": n, "k": k, "check": f"telescoping-vs-{name}"},
                    _alphas_dump(tele),
                    _alphas_dump(claimed, den),
                )
        parts = [legendre[n - k - 2 * i] for i in range(len(tele))]
        rebuilt = _combination([(a, 1) for a in tele], parts)
        if rebuilt != derived:
            return _poly_mismatch({"n": n, "k": k, "check": "against-derivative"}, rebuilt, derived)
        return None

    def surplus(n, k, tele, scaled, recur, derived):
        if k > n:
            return False
        big_n = n - k
        lhs, lhs_den = _z_form(derived, big_n + 1)
        rows = [z_rows[m] for m in range(big_n, -1, -2)]
        for j in range(1 - big_n % 2, big_n + 1, 2):  # the odd offsets big_n - j
            # P_m has no z^j term past j = m
            combined = sum(c * row[j] for c, row in zip(scaled, rows) if j < len(row))
            if combined * lhs_den != lhs[j] << k:
                return Counterexample(
                    {"n": n, "k": k, "row": j, "check": "surplus-row"},
                    (format_rational(Fraction(combined, 2 ** k)),),
                    (format_rational(Fraction(lhs[j], lhs_den)),),
                )
        return None

    def recurrence(n, k, tele, scaled, recur, derived):
        if k > n:
            return False
        if tele != recur:
            return Counterexample(
                {"n": n, "k": k, "check": "recurrence-vs-telescoping"},
                _alphas_dump(recur),
                _alphas_dump(tele),
            )
        return None

    cases = (
        (n, k, _telescoping(n, k) if telescope else None, _triangular(n, k, murphy_rows) if solve else None,
         _alpha_values(n, k, (n - k) // 2) if telescope else None,
         differentiate(legendre[n], k) if solve else None)
        for n in range(n_max + 1)
        for k in range(n + 1 + 2 * ("eq19" in subjects))
    )
    checks = {"eq19": derivative, "eq24-rows": surplus, "eq26-vs-telescoping": recurrence}
    return _report(n_max, cases, {subject: checks[subject] for subject in subjects}, (0, n_max))


def verify_derivative_identity(n_max: int) -> VerificationReport:
    """Check all four derivative-expansion routes against formal derivatives.

    For every 0 <= k <= n <= n_max the telescoping, triangular,
    closed-recurrence and closed-form cores must agree coefficient by
    coefficient (the triangular one, which holds 2^k alpha, against 2^k times
    telescoping) and, rebuilt through the Legendre basis, must equal
    differentiate(P_n, k) exactly. Orders k = n+1, n+2 are also swept: there
    every route is empty and the derivative the zero polynomial.
    """
    return _derivative_reports(n_max, ("eq19",))[0]


def verify_surplus_rows(n_max: int) -> VerificationReport:
    """Re-check the redundant rows of the coefficient-matching system.

    The triangular solve determines one unknown per even offset; the
    odd-offset rows are over-determined. Here both row sides are rebuilt
    purely by polynomial substitution x = 1 - 2z and the solved alphas must
    satisfy every such surplus row exactly. The z-row of each basis
    polynomial P_m is substituted once per call; its entries are integers,
    (-1)^j C(m,j) C(m+j,j), so a row's sum stays over the 2^k of the
    triangular core and is compared by cross-multiplying.
    """
    return _derivative_reports(n_max, ("eq24-rows",))[0]


def verify_recurrence_vs_telescoping(n_max: int) -> VerificationReport:
    """Cross-check the closed recurrence against the telescoping route."""
    return _derivative_reports(n_max, ("eq26-vs-telescoping",))[0]


def replay_rodrigues_derivation(lam: RationalLike, n: int) -> Poly:
    """P_n(lam*x) rebuilt by replaying its generating construction.

    Expand ((x^2-1) + (lam^2-1)/lam^2)^n binomially, scale the sum by the
    lam^n / (2^n n!) prefactor and differentiate it n times term by term.
    lam = 0 is rejected: this route divides by lam^2, unlike the
    coefficient formulas, which stay valid there.

    The integer construction is `polynomials._scaled_rodrigues`, which
    `legendre_rodrigues` runs at lam = 1.
    """
    factor = as_rational(lam)
    if factor == 0:
        raise ValueError("lambda must be nonzero for the derivation replay")
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _scaled_rodrigues(factor.numerator, factor.denominator, n)


def verify_replay(n_max: int, lambdas: Sequence[RationalLike] = NONZERO_LAMBDAS) -> VerificationReport:
    """Compare the derivation replay with direct argument scaling."""
    values = _clean_lambdas(lambdas)
    if any(v == 0 for v in values):
        raise ValueError("lambda=0 invalid for replay")
    legendre = _legendre_polys(n_max)

    def check(n: int, lam: Fraction) -> Optional[Counterexample]:
        replayed = replay_rodrigues_derivation(lam, n)
        target = scale_argument(legendre[n], lam)
        if replayed != target:
            return _poly_mismatch(_lambda_params(n, lam, "replay"), replayed, target)
        return None

    cases = ((n, lam) for n in range(n_max + 1) for lam in values)
    return _report(n_max, cases, {"replay": check}, None, values)[0]


def random_lambdas(count: int, seed: int) -> Tuple[Fraction, ...]:
    """Seeded rational sample for sweep extension; reproducible across runs."""
    import random  # only a seeded sweep needs it

    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    return tuple(
        Fraction(rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR))
        for _ in range(count)
    )


def _json_text(value: object, indent: Optional[int] = None, depth: int = 0) -> str:
    """`json.dumps(value, indent=indent)` for a report's dicts, lists, strs, ints, bools and None.
    Every report string is the program's, so one that JSON would escape raises ValueError."""
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
            raise ValueError(f"a report string needs JSON escaping: {value!r}")
        return f'"{value}"'
    if value is None or isinstance(value, int):  # a bool is an int: str(True).lower() is "true"
        return "null" if value is None else str(value).lower()
    if isinstance(value, dict):
        items, ends = [f"{_json_text(k)}: {_json_text(v, indent, depth + 1)}" for k, v in value.items()], "{}"
    else:
        items, ends = [_json_text(v, indent, depth + 1) for v in value], "[]"
    if not items or indent is None:
        return ends[0] + ", ".join(items) + ends[1]
    pad = "\n" + " " * (indent * (depth + 1))
    return ends[0] + pad + f",{pad}".join(items) + "\n" + " " * (indent * depth) + ends[1]


def _verify_reports(args: argparse.Namespace) -> List[VerificationReport]:
    """The report of each suite `verify` selects, in `cli.SUITES` order."""
    from .cli import RANDOM_LAMBDA_COUNT, SUITES, UsageError, _parse_lambda

    if args.suite in ("eq19", "eq26"):  # the derivative suites sweep no lambda
        for flag, value in (("--lambda", args.lam), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to suite {args.suite!r}")
    if args.lam:
        lambdas: Tuple[Fraction, ...] = tuple(_parse_lambda(t) for t in args.lam)
        if args.suite == "replay" and any(v == 0 for v in lambdas):
            raise UsageError("lambda=0 invalid for replay")
    else:
        lambdas = DEFAULT_LAMBDAS
    if args.seed is not None:
        lambdas = lambdas + random_lambdas(RANDOM_LAMBDA_COUNT, args.seed)
    replay_lambdas = tuple(v for v in lambdas if v != 0)
    wanted = SUITES[1:] if args.suite == "all" else (args.suite,)
    if "replay" in wanted and not replay_lambdas:  # refused before any suite runs
        raise UsageError("replay requires at least one nonzero lambda")

    reports = [
        verify_scaling_identity(args.n_max, lambdas, form)
        for suite, form in (("eq9", FORM_DERIVATIVE), ("eq13", FORM_LEGENDRE)) if suite in wanted
    ]
    # one (n, k) pass; eq19 brings eq24-rows, its solve's surplus rows
    subjects = ("eq19", "eq24-rows") * ("eq19" in wanted) + ("eq26-vs-telescoping",) * ("eq26" in wanted)
    if subjects:
        reports += _derivative_reports(args.n_max, subjects)
    if "replay" in wanted:
        reports.append(verify_replay(args.n_max, replay_lambdas))
    return reports


def _cmd_verify(args: argparse.Namespace) -> int:
    from .cli import EXIT_OK, EXIT_VERIFY_FAILED, _emit

    reports = _verify_reports(args)
    all_passed = all(r.passed for r in reports)
    if args.format == "csv":

        def quoted(text: str) -> str:  # as csv.QUOTE_MINIMAL quotes a cell holding '"'
            return '"' + text.replace('"', '""') + '"'

        header = ("subject", "status", "n_min", "n_max", "k_min", "k_max", "lambdas", "counterexample")
        chunks = [",".join(map(str, row)) + "\n" for row in (header, *(
            (
                r.subject, r.status, *r.n_range, *(r.k_range or ("", "")),
                " ".join(map(format_rational, r.lambdas or ())),
                quoted(_json_text(r.counterexample.to_json())) if r.counterexample else "",
            )
            for r in reports
        ))]
    else:
        payload = {"n_max": args.n_max, "status": "pass" if all_passed else "fail",
                   "suites": [r.to_json() for r in reports]}
        chunks = [_json_text(payload, 2) + "\n"]
    _emit(args, chunks)
    for r in reports:
        sys.stderr.write(f"{r.subject:<24}{r.status}  {r.cases} cases\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED
