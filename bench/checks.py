"""Exact output checks for every CLI invocation the benchmark runs.

Each check recomputes the expected values by a route other than the one the
CLI takes and compares by exact rational equality:

* verify: the report and every suite in it say "pass", the suites are the
  ones asked for, each swept n over [0, --n-max], and eq9, eq13 and replay
  swept exactly the --lambda values passed, in order;
* table a / expand scaled --form derivative: the closed form
  a_k = lam^(n-2k) (lam^2-1)^k / (2^k k!), built from running powers;
* table b / expand scaled --form legendre: sum_k b_k P_{n-2k}(x) = P_n(lam x)
  at n//2 + 1 distinct positive points, with P evaluated pointwise by the
  three-term recurrence. Both sides are polynomials of degree <= n with the
  parity of n, so agreement at that many positive points proves every b_k;
* table alpha / expand deriv: equal to `deriv_expand_telescoping`, whereas
  the CLI uses the closed recurrence;
* eval: P_n(lam x) from the pointwise recurrence, rendered by the CLI's own
  `format_decimal`.

A check returns None when the output is right and a one-line reason when it
is not. Empty output is always wrong.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence

from legscale.cli import format_decimal
from legscale.derivatives import deriv_expand_telescoping

# Report subjects each `verify SUITE` invocation must produce, in order.
SUITE_SUBJECTS = {
    "eq9": ("eq9",),
    "eq13": ("eq13",),
    "eq19": ("eq19", "eq24-rows"),
    "eq26": ("eq26-vs-telescoping",),
    "replay": ("replay",),
}
# Subjects that sweep the --lambda values; the others report no lambdas.
LAMBDA_SUBJECTS = ("eq9", "eq13", "replay")


def _flags(argv: Sequence[str]) -> Dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def legendre_values(x: Fraction, n_max: int) -> List[Fraction]:
    """P_0(x) ... P_n_max(x) by (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}."""
    values = [Fraction(1), x]
    for m in range(1, n_max):
        values.append(((2 * m + 1) * x * values[m] - m * values[m - 1]) / (m + 1))
    return values[: n_max + 1]


def a_values(lam: Fraction, n: int) -> List[Fraction]:
    """Closed-form derivative-form weights a_0 ... a_{n//2} of P_n(lam x)."""
    shift = lam * lam - 1
    out = []
    for k in range(n // 2 + 1):
        out.append(lam ** (n - 2 * k) * shift ** k / (2 ** k * factorial(k)))
    return out


class _LegendreFormOracle:
    """Proves a legendre-form coefficient vector by pointwise evaluation."""

    def __init__(self, lam: Fraction, n_max: int) -> None:
        self.points = [Fraction(1, j) for j in range(1, n_max // 2 + 2)]
        self.basis = [legendre_values(x, n_max) for x in self.points]
        self.scaled = [legendre_values(lam * x, n_max) for x in self.points]

    def mismatch(self, n: int, coeffs: Sequence[Fraction]) -> Optional[str]:
        if len(coeffs) != n // 2 + 1:
            return f"n={n}: {len(coeffs)} coefficients, expected {n // 2 + 1}"
        for j in range(n // 2 + 1):
            basis = self.basis[j]
            total = sum((b * basis[n - 2 * k] for k, b in enumerate(coeffs)), Fraction(0))
            if total != self.scaled[j][n]:
                return f"n={n}: sum_k b_k P_(n-2k)({self.points[j]}) != P_n(lam*x)"
        return None


def _csv_rows(text: str, header: List[str]) -> Optional[List[List[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _check_verify(argv: Sequence[str], text: str) -> Optional[str]:
    report = json.loads(text)
    if report.get("status") != "pass":
        return "verify status is not pass"
    subjects = tuple(s["subject"] for s in report["suites"])
    if subjects != SUITE_SUBJECTS[argv[1]]:
        return f"verify ran suites {subjects}"
    n_max = int(_flags(argv)["--n-max"])
    lambdas = [Fraction(argv[i + 1]) for i in range(len(argv) - 1) if argv[i] == "--lambda"]
    if report["n_max"] != n_max:
        return f"verify reports n_max {report['n_max']}, expected {n_max}"
    for suite in report["suites"]:
        subject = suite["subject"]
        if suite["status"] != "pass":
            return f"verify suite {subject} failed"
        if suite["n_range"] != [0, n_max]:
            return f"verify suite {subject} swept n {suite['n_range']}, expected [0, {n_max}]"
        swept = None if suite["lambdas"] is None else [Fraction(v) for v in suite["lambdas"]]
        if swept != (lambdas if subject in LAMBDA_SUBJECTS else None):
            return f"verify suite {subject} swept lambdas {suite['lambdas']}, not those requested"
    return None


def _check_table(argv: Sequence[str], text: str) -> Optional[str]:
    kind = argv[1]
    flags = _flags(argv)
    n_max = int(flags["--n-max"])
    if kind == "alpha":
        rows = _csv_rows(text, ["n", "k", "i", "value"])
        if rows is None:
            return "bad table alpha header"
        expected = []
        for n in range(n_max + 1):
            for k in range(n + 1):
                for i, a in enumerate(deriv_expand_telescoping(n, k).alphas):
                    expected.append([str(n), str(k), str(i), a])
        if len(rows) != len(expected):
            return f"table alpha has {len(rows)} rows, expected {len(expected)}"
        for row, want in zip(rows, expected):
            if row[:3] != want[:3] or Fraction(row[3]) != want[3]:
                return f"table alpha row {row} != {want}"
        return None
    rows = _csv_rows(text, ["n", "k", "value"])
    if rows is None:
        return f"bad table {kind} header"
    lam = Fraction(flags["--lambda"])
    by_n: Dict[int, List[Fraction]] = {}
    for row in rows:
        n, k = int(row[0]), int(row[1])
        values = by_n.setdefault(n, [])
        if k != len(values):
            return f"table {kind}: row ({n}, {k}) out of order"
        values.append(Fraction(row[2]))
    if sorted(by_n) != list(range(n_max + 1)):
        return f"table {kind}: degrees {sorted(by_n)[:3]}... do not cover 0..{n_max}"
    if kind == "a":
        for n, values in by_n.items():
            if values != a_values(lam, n):
                return f"table a: row n={n} differs from the closed form"
        return None
    oracle = _LegendreFormOracle(lam, n_max)
    for n, values in by_n.items():
        reason = oracle.mismatch(n, values)
        if reason:
            return f"table b: {reason}"
    return None


def _check_expand(argv: Sequence[str], text: str) -> Optional[str]:
    flags = _flags(argv)
    n = int(flags["--n"])
    data = json.loads(text)
    if argv[1] == "deriv":
        k = int(flags["--k"])
        want = deriv_expand_telescoping(n, k)
        got = {int(m): Fraction(c) for m, c in data["alphas"].items()}
        expected = {want.degree_of(i): a for i, a in enumerate(want.alphas)}
        if (data["n"], data["k"]) != (n, k) or got != expected:
            return f"expand deriv n={n} k={k} differs from telescoping"
        return None
    lam = Fraction(flags["--lambda"])
    if data["n"] != n or Fraction(data["lambda"]) != lam or data["form"] != flags["--form"]:
        return "expand scaled header mismatch"
    coeffs = [Fraction(data["coeffs"][str(k)]) for k in range(len(data["coeffs"]))]
    if flags["--form"] == "derivative":
        return None if coeffs == a_values(lam, n) else f"expand scaled a_k at n={n} differ"
    return _LegendreFormOracle(lam, n).mismatch(n, coeffs)


def _check_eval(argv: Sequence[str], text: str) -> Optional[str]:
    flags = _flags(argv)
    n = int(flags["--n"])
    point = Fraction(flags["--lambda"]) * Fraction(flags["--x"])
    want = format_decimal(legendre_values(point, n)[n], 12) + "\n"
    return None if text == want else f"eval printed {text.strip()!r}, expected {want.strip()!r}"


_CHECKS = {
    "verify": _check_verify,
    "table": _check_table,
    "expand": _check_expand,
    "eval": _check_eval,
}


def check(argv: Sequence[str], text: str) -> Optional[str]:
    """None when `text` is the exact right stdout for `argv`, else a reason."""
    if not text:
        return "empty stdout"
    try:
        return _CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
