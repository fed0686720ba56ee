"""A checked-in mutant list: each kernel mutant must fail `verify`.

Each entry names a module of the package, a text that occurs in it exactly
once, its replacement, and the exact set of subjects that must fail when
`verify all --n-max 16` runs on the mutated copy. Every run must exit 1 with
a JSON report and no traceback. The known gaps are strict xfails, so the
entry that a later change closes turns into an unexpected pass here:

- gap 1: `table a` (`scaling._a_rows`) and `eval` (`scaling._basis_values`)
  print routes that no `verify` suite reads, so their mutants pass `verify`;
- gap 2: a kernel's `ArithmeticError` escapes `verify` as a traceback, with
  no report;
- gap 3: the reconstruction sum reads no basis row before its entry k, where
  the row is zero (`verify._rebuild`), so a nonzero there passes `verify`;
  `expansion_basis` prints it, and tier-1 compares that with the `Poly` basis.
"""

import json

import pytest

GAP_1 = "gap 1: no verify suite reads the routes that `table a` and `eval` print"
GAP_2 = "gap 2: a kernel's ArithmeticError escapes verify as a traceback"
GAP_3 = "gap 3: the reconstruction reads no basis row before its entry k"


def mutant(name, file, old, new, failing=None, gap=None):
    """One entry; `failing` is left unpinned while a known gap is open."""
    marks = pytest.mark.xfail(strict=True, reason=gap) if gap else ()
    return pytest.param(file, old, new, failing, marks=marks, id=name)


MUTANTS = [
    mutant("a-core-shift", "scaling.py", "shift_power * (p * p - q * q)", "shift_power * (p * p + q * q)", {"eq9"}),
    mutant("horner-weight", "scaling.py", "2 * m + 2 * i + 1", "2 * m + 2 * i + 3", {"eq13"}),
    mutant("doha-weight", "scaling.py", "(2 * m + 1) * comb(k + i - 1, i)", "(2 * m + 3) * comb(k + i - 1, i)",
           {"eq19"}),
    mutant("telescoping-pass", "derivatives.py", "+ 1) * total for i, total", "+ 3) * total for i, total",
           {"eq19", "eq26-vs-telescoping"}),
    mutant("recurrence-correction", "derivatives.py", "2 * (i - l))", "2 * (i - l) + 1)",
           {"eq19", "eq26-vs-telescoping"}),
    mutant("z-step-sign", "derivatives.py", "[-j * c for j, c", "[j * c for j, c", {"eq24-rows"}),
    mutant("derived-row", "polynomials.py", "perm(n - 2 * j, k)", "perm(n - 2 * j, k) + (k == 2)", {"eq9", "eq19"}),
    mutant("legendre-basis", "polynomials.py", "c << 2 * k for c in rows",
           "c << 2 * k + (n == 6 and k == 1) for c in rows", {"eq13", "eq19"}),
    mutant("rodrigues-sign", "polynomials.py", "c = -c * j // (k - j + 1)", "c = c * j // (k - j + 1)", {"replay"}),
    mutant("rodrigues-half", "polynomials.py", "half = (n + 1) // 2", "half = (n + 2) // 2", {"replay"}),
    mutant("projection-weight", "polynomials.py", "(2 * m + 1) * total", "(2 * m + 3) * total", {"eq13"}),
    mutant("bonnet-step", "polynomials.py", "4 * m, m + 1", "4 * m + (m == 3), m + 1", gap=GAP_2),
    mutant("murphy-ratio", "derivatives.py", "(n + k + 1 + j)", "(n + k + 2 + j)", gap=GAP_2),
    mutant("recurrence-odd-run", "derivatives.py", "odd_n *= 2 * n - 1 - 2 * i", "odd_n *= 2 * n + 1 - 2 * i",
           gap=GAP_2),
    mutant("a-rows-step", "scaling.py", "q * q * (n + 2)", "q * q * (n + 4)", gap=GAP_1),
    mutant("a-form-walk", "scaling.py", "(n + m + 1) * s2", "(n + m + 3) * s2", gap=GAP_1),
    mutant("legendre-walk", "scaling.py", "m * m * t2", "m * (m + 1) * t2", gap=GAP_1),
    mutant("basis-head", "polynomials.py", "[[0] * k + [c << 2 * k", "[[1] * k + [c << 2 * k", gap=GAP_3),
]


@pytest.mark.parametrize("file, old, new, failing", MUTANTS)
def test_mutant_fails_verify(run_mutant, file, old, new, failing):
    result = run_mutant(file, old, new, "verify", "all", "--n-max", "16")
    assert "Traceback" not in result.stderr
    assert result.returncode == 1
    failed = {s["subject"] for s in json.loads(result.stdout)["suites"] if s["status"] == "fail"}
    assert failed == failing if failing is not None else failed
