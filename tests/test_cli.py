import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import legscale.cli
import legscale.derivatives
import legscale.output
import legscale.verify
from legscale import deriv_expand_closed, expand_derivative_form, expand_legendre_form, legendre_bonnet
from legscale.cli import format_decimal, main
from legscale.rationals import format_rational
from legscale.scaling import FORM_DERIVATIVE, FORM_LEGENDRE, _a_rows, _basis_values, _doha_alphas, _expansion


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatDecimal:
    def test_examples(self):
        assert format_decimal(Fraction(1), 12) == "1.0"
        assert format_decimal(Fraction(3, 4), 12) == "0.75"
        assert format_decimal(Fraction(-37, 128), 12) == "-0.2890625"
        assert format_decimal(Fraction(10), 3) == "10.0"
        assert format_decimal(Fraction(1, 3), 5) == "0.33333"
        assert format_decimal(Fraction(-1, 100000), 3) == "0.0"  # rounds away, no "-0"


class TestTable:
    def test_b_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "b", "--lambda", "2", "--n-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert "2,0,4" in lines
        assert "2,1,3/2" in lines

    def test_alpha_table_has_hand_checked_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "alpha", "--n-max", "3")
        assert code == 0
        assert "3,1,1,1" in out.splitlines()

    def test_identity_lambda_zeroes_higher_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "a", "--lambda", "1", "--n-max", "5")
        assert code == 0
        for line in out.splitlines()[1:]:
            n, k, value = line.split(",")
            assert value == ("1" if k == "0" else "0")

    def test_json_and_csv_hold_identical_rationals(self, capsys):
        code, csv_out, _ = run_cli(capsys, "table", "b", "--lambda", "7/3", "--n-max", "4")
        assert code == 0
        code, json_out, _ = run_cli(
            capsys, "table", "b", "--lambda", "7/3", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        csv_values = [line.rsplit(",", 1)[1] for line in csv_out.splitlines()[1:]]
        json_values = [row["value"] for row in json.loads(json_out)["rows"]]
        assert csv_values == json_values

    def test_float_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "b", "--lambda", "2", "--n-max", "2", "--digits", "6"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value,float"
        assert "2,1,3/2,1.5" in lines

    def test_missing_lambda_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "b", "--n-max", "2")
        assert code == 2
        assert "--lambda" in err

    def test_unparseable_lambda_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "table", "b", "--lambda", "1.5", "--n-max", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "b", "--lambda", "\u0663", "--n-max", "2"),
            ("table", "a", "--n-max", "\u0663", "--lambda", "2"),
            ("expand", "deriv", "--n", "\u0663", "--k", "1"),
            ("expand", "deriv", "--n", "3", "--k", "\uff11"),
            ("table", "b", "--lambda", "2", "--n-max", "2", "--digits", "\u0664"),
            ("verify", "eq9", "--n-max", "2", "--seed", "\u0663"),
            ("eval", "--n", "3", "--lambda", "2", "--x", "\u0660.\u0665"),
        ],
        ids=["lambda", "n-max", "n", "k", "digits", "seed", "x"],
    )
    def test_non_ascii_lambda_is_usage_error(self, capsys, argv):
        # Every numeric flag, not only --lambda, takes ASCII digits only.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_bad_digits_is_usage_error(self, capsys):
        for digits in ("0", "51"):
            code, _, _ = run_cli(
                capsys, "table", "b", "--lambda", "2", "--n-max", "2", "--digits", digits
            )
            assert code == 2

    def test_negative_n_max_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "table", "alpha", "--n-max", "-1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "b", "--lambda", "1_0", "--n-max", "2"),
            ("table", "alpha", "--n-max", "1_0"),
            ("expand", "deriv", "--n", "1_0", "--k", "1"),
            ("expand", "deriv", "--n", "3", "--k", "0_1"),
            ("table", "b", "--lambda", "2", "--n-max", "2", "--digits", "1_2"),
            ("verify", "eq9", "--n-max", "2", "--seed", "1_0"),
            ("eval", "--n", "3", "--lambda", "2", "--x", "1/2_0"),
        ],
        ids=["lambda", "n-max", "n", "k", "digits", "seed", "x"],
    )
    def test_digit_separators_are_usage_errors(self, capsys, argv):
        # int() and Fraction() read "1_0" as 10; every numeric flag refuses
        # it, as --lambda does.
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, "")


class TestExpand:
    def test_scaled_legendre(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "scaled", "--n", "2", "--lambda", "2", "--form", "legendre"
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == {"0": "4", "1": "3/2"}

    def test_scaled_degree_zero(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "scaled", "--n", "0", "--lambda", "-3/5")
        assert code == 0
        assert json.loads(out)["coeffs"] == {"0": "1"}

    def test_deriv(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "deriv", "--n", "3", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["alphas"] == {"2": "5", "0": "1"}
        assert payload["n"] == 3 and payload["k"] == 1

    def test_deriv_csv(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "deriv", "--n", "3", "--k", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["degree,value", "2,5", "0,1"]

    def test_deriv_above_degree_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "deriv", "--n", "2", "--k", "5")
        assert code == 0
        assert json.loads(out)["alphas"] == {}

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "expand", "deriv", "--n", "3")
        assert code == 2
        assert "--k" in err

    def test_missing_lambda_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "expand", "scaled", "--n", "3")
        assert code == 2

    def test_scaled_form_defaults_to_legendre(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "scaled", "--n", "2", "--lambda", "2")
        assert code == 0
        assert json.loads(out)["form"] == "legendre"

    def test_scaled_derivative_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "scaled", "--n", "3", "--lambda", "2", "--form", "derivative"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["form"] == "derivative"
        assert payload["coeffs"] == {"0": "8", "1": "3"}

    @staticmethod
    def assert_prints(capsys, argv, record, key, entries):
        """JSON output is json.dumps of the public record's to_json(), and CSV
        is the rendering of `format_rational` over the record's entries."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == json.dumps(record.to_json(), indent=2) + "\n", argv
        assert json.loads(out) == record.to_json()
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        lines = [f"{key},value"] + [f"{m},{format_rational(v)}" for m, v in entries]
        assert code == 0 and out == "".join(line + "\n" for line in lines), argv

    @pytest.mark.parametrize("lam", ["0", "1", "-1", "2", "1/2", "-3/5", "7/3", "-16/7"])
    @pytest.mark.parametrize("form", ["derivative", "legendre"])
    def test_scaled_prints_the_public_record(self, capsys, lam, form):
        expand = expand_derivative_form if form == "derivative" else expand_legendre_form
        for n in range(41):
            record = expand(Fraction(lam), n)
            argv = ("expand", "scaled", "--n", str(n), "--lambda", lam, "--form", form)
            self.assert_prints(capsys, argv, record, "k", enumerate(record.coeffs))

    def test_deriv_prints_the_public_record(self, capsys):
        for n in range(41):
            for k in range(n + 3):
                record = deriv_expand_closed(n, k)
                entries = [(record.degree_of(i), a) for i, a in enumerate(record.alphas)]
                self.assert_prints(capsys, ("expand", "deriv", "--n", str(n), "--k", str(k)), record, "degree", entries)

    def test_scaled_k_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "scaled", "--n", "4", "--lambda", "2", "--k", "3"
        )
        assert code == 2
        assert "--k does not apply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "alpha", "--n-max", "1", "--lambda", "3"),
        ("expand", "deriv", "--n", "3", "--k", "1", "--lambda", "5"),
        ("expand", "deriv", "--n", "3", "--k", "1", "--form", "derivative"),
        ("expand", "deriv", "--n", "3", "--k", "1", "--form", "legendre"),
        ("expand", "scaled", "--n", "4", "--lambda", "2", "--k", "1"),
        ("verify", "eq19", "--n-max", "2", "--lambda", "3"),
        ("verify", "eq19", "--n-max", "2", "--seed", "1"),
        ("verify", "eq26", "--n-max", "2", "--lambda", "3"),
        ("verify", "eq26", "--n-max", "2", "--seed", "1"),
    ],
    ids=" ".join,
)
def test_flag_that_does_not_apply_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[-2]} does not apply" in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        subjects = [s["subject"] for s in payload["suites"]]
        assert subjects == ["eq9", "eq13", "eq19", "eq24-rows", "eq26-vs-telescoping", "replay"]
        assert err.count("pass") == 6

    def test_stderr_counts_cases(self, capsys):
        # 7 default lambdas + 20 seeded ones (26 nonzero for replay), n <= 20:
        # eq19 sweeps k <= n+2, eq24-rows and eq26 k <= n.
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "20", "--seed", "1")
        assert code == 0
        assert "cases" not in out
        assert err.splitlines() == [
            "eq9                     pass  567 cases",
            "eq13                    pass  567 cases",
            "eq19                    pass  273 cases",
            "eq24-rows               pass  231 cases",
            "eq26-vs-telescoping     pass  231 cases",
            "replay                  pass  546 cases",
        ]

    def test_projection_rows_are_not_walked_per_lambda(self, capsys, monkeypatch):
        # Each sweep that reads P_m walks the Bonnet rows once, and every
        # P_n, basis, projection and replay target reads that walk, so the
        # walks of `_bonnet_rows` depend neither on how many lambdas are
        # swept at each n nor on n_max: eq13 at n_max 12 walks once, and
        # `verify all` once for each of eq9, eq13 and replay and once for the
        # one pass of eq19, eq24-rows and eq26. No sweep reads the
        # `legendre_bonnet` cache: it stays empty, with no hit and no miss.
        real = legscale.polynomials._bonnet_rows

        def walks_for(suite, *lambda_args):
            walks = []

            def counting():
                walks.append(1)
                return real()

            for module in (legscale.polynomials, legscale.scaling, legscale.cli, legscale.verify):
                if hasattr(module, "_bonnet_rows"):
                    monkeypatch.setattr(module, "_bonnet_rows", counting)
            legendre_bonnet.cache_clear()
            code, out, err = run_cli(capsys, "verify", suite, "--n-max", "12", *lambda_args)
            assert code == 0 and json.loads(out)["status"] == "pass", err
            info = legendre_bonnet.cache_info()
            assert (info.hits, info.misses) == (0, 0), (suite, lambda_args)
            return len(walks), err

        many, err = walks_for("eq13", "--seed", "1")
        assert err == "eq13                    pass  351 cases\n"  # 27 lambdas, n <= 12
        one, _ = walks_for("eq13", "--lambda", "7/3")
        assert many == one == 1
        assert walks_for("all", "--seed", "1")[0] == walks_for("all", "--lambda", "7/3")[0] == 4

    def test_degenerate_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq19", "--n-max", "0")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_seeded_lambdas_extend_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq9", "--n-max", "4", "--seed", "3")
        assert code == 0
        assert len(json.loads(out)["suites"][0]["lambdas"]) == 7 + 20

    def test_explicit_zero_lambda_rejected_for_replay(self, capsys):
        code, _, err = run_cli(capsys, "verify", "replay", "--lambda", "0", "--n-max", "4")
        assert code == 2
        assert "lambda=0 invalid for replay" in err

    def test_all_suite_skips_zero_for_replay(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "3", "--lambda", "0", "--lambda", "2")
        assert code == 0
        payload = json.loads(out)
        replay = payload["suites"][-1]
        assert replay["subject"] == "replay"
        assert replay["lambdas"] == ["2"]

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        real = legscale.verify._derivative_form

        def corrupted(p, q, n):
            rows = list(real(p, q, n))
            if n == 2:
                num, den = rows[0]
                rows[0] = (num + den, den)  # a_0 + 1
            return rows

        monkeypatch.setattr(legscale.verify, "_derivative_form", corrupted)
        code, out, err = run_cli(capsys, "verify", "eq9", "--n-max", "4")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert payload["suites"][0]["counterexample"]["params"]["n"] == 2
        assert "fail" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq26", "--n-max", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("subject,status")
        assert lines[1].startswith("eq26-vs-telescoping,pass")

    @pytest.mark.parametrize("suite, route", [
        ("eq19", "_triangular"), ("eq26", "_alpha_values"),
    ], ids=["eq19-deriv_expand_triangular", "eq26-deriv_expand_recurrence"])
    def test_csv_report_quotes_a_counterexample_as_csv_does(self, capsys, monkeypatch, suite, route):
        # `route` is the integer core of the named public function, which the
        # derivative pass looks up in `legscale.derivatives` when it runs
        real = getattr(legscale.derivatives, route)

        def corrupted(n, k, *rest):
            alphas = real(n, k, *rest)
            return [alphas[0] + 1] + alphas[1:] if (n, k) == (4, 2) else alphas

        monkeypatch.setattr(legscale.derivatives, route, corrupted)
        code, out, _ = run_cli(capsys, "verify", suite, "--n-max", "5", "--format", "csv")
        assert code == 1
        args = legscale.cli.build_parser().parse_args(["verify", suite, "--n-max", "5"])
        reports = legscale.verify._verify_reports(args)
        assert any(r.counterexample for r in reports)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["subject", "status", "n_min", "n_max", "k_min", "k_max", "lambdas", "counterexample"])
        for r in reports:
            writer.writerow([
                r.subject, r.status, *r.n_range, *r.k_range, "",
                json.dumps(r.counterexample.to_json()) if r.counterexample else "",
            ])
        assert out == buffer.getvalue()
        assert '""' in out

    def test_derivative_suites_share_one_pass(self, capsys, monkeypatch):
        # eq19 and eq24-rows read one triangular solve per (n, k), over z-rows
        # built once per run; eq26 alone reads no P_m and makes no solve. The
        # pass looks its routes up in `legscale.derivatives`, where each solve
        # also makes its own target, one `_murphy_scaled(n, k)`.
        calls = {}

        def counting(module, name):
            real, log = getattr(module, name), calls.setdefault(name, [])

            def wrapper(*args):
                log.append(args)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((legscale.derivatives, "_triangular"), (legscale.derivatives, "_murphy_scaled"),
                             (legscale.verify, "_bonnet_rows")):
            counting(module, name)
        code, _, err = run_cli(capsys, "verify", "eq19", "--n-max", "20")
        assert code == 0
        assert err == "eq19                    pass  273 cases\neq24-rows               pass  231 cases\n"
        cases = [(n, k) for n in range(21) for k in range(n + 3)]
        assert [(n, k) for n, k, _ in calls["_triangular"]] == cases
        assert len(calls["_bonnet_rows"]) == 1
        assert calls["_murphy_scaled"] == [(m, 0) for m in range(21)] + cases  # the rows once, then the targets
        for log in calls.values():
            log.clear()
        code, _, err = run_cli(capsys, "verify", "eq26", "--n-max", "20")
        assert (code, err) == (0, "eq26-vs-telescoping     pass  231 cases\n")
        assert calls == {"_triangular": [], "_murphy_scaled": [], "_bonnet_rows": []}

    @pytest.mark.parametrize("corruption, argv, digest, err", [
        ("z-row", ("all",), "65a7bc512aea5cf1a6d2c22ad67007e629cd1dcbb1d95c019606ac237a30254d",
         "eq9 pass 91|eq13 pass 91|eq19 pass 117|eq24-rows fail 7|eq26-vs-telescoping pass 91|replay pass 78"),
        ("recurrence", ("all",), "fde86934f88b40d38e6949b6a92afc602d710182588fb17b8ec9c8292c565201",
         "eq9 pass 91|eq13 pass 91|eq19 fail 28|eq24-rows pass 91|eq26-vs-telescoping fail 18|replay pass 78"),
        ("combination", ("eq19", "--format", "csv"),
         "a4f5522811c6da0a1973f5ea712e445a5b8591b624bd8b4433b4de5faf0c2683", "eq19 fail 13|eq24-rows pass 91"),
    ])
    def test_corruption_seen_by_one_suite_keeps_the_pinned_report(self, capsys, monkeypatch, corruption, argv,
                                                                  digest, err):
        # Each corruption reaches one route that the suites of the derivative
        # pass read differently; the report bytes and the case counts are
        # pinned from the separate sweeps that the pass replaced.
        # the pass looks its routes up in `legscale.derivatives`, the rest in `legscale.verify`
        module, name = {
            "z-row": (legscale.verify, "_z_form"), "recurrence": (legscale.derivatives, "_alpha_values"),
            "combination": (legscale.verify, "_combination"),
        }[corruption]
        real, done = getattr(module, name), []

        def corrupted(*args):
            out = real(*args)
            if corruption == "z-row" and args[1] == 4 and not done:  # eq24-rows' own z-row of P_3, z^2 + 1
                done.append(args)
                nums, den = out
                return nums[:2] + (nums[2] + den,) + nums[3:], den
            if corruption == "recurrence" and args[:2] == (5, 2):
                return [out[0] + 1] + out[1:]
            if corruption == "combination" and len(args[1]) == 2 and args[1][0].degree == 3:  # n - k = 3
                return out + legscale.polynomials.Poly.one()
            return out

        monkeypatch.setattr(module, name, corrupted)
        code, out, stderr = run_cli(capsys, "verify", argv[0], "--n-max", "12", *argv[1:])
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        assert stderr == "".join(f"{s:<24}{status}  {cases} cases\n" for s, status, cases in (
            line.split() for line in err.split("|")))

    def test_all_suite_refuses_zero_lambdas_before_any_suite_runs(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran")

        for name in ("verify_scaling_identity", "_derivative_reports", "verify_derivative_identity",
                     "verify_surplus_rows", "verify_recurrence_vs_telescoping", "verify_replay"):
            monkeypatch.setattr(legscale.verify, name, refuse)
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "80", "--lambda", "0")
        assert (code, out) == (2, "")
        assert "replay requires at least one nonzero lambda" in err

    def test_report_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "eq9", "--n-max", "4", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "pass"

    def test_unwritable_destination_exits_three(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "eq9", "--n-max", "2", "--output", str(tmp_path / "missing" / "x.json")
        )
        assert code == 3
        assert "i/o error" in err

    def test_derivative_pass_differentiates_once_a_case(self, capsys, monkeypatch):
        # eq19's against-derivative check and eq24-rows' left side read one
        # d^k P_n per case: 273 eq19 cases at n_max 20 (k <= n+2), where a
        # derivative per subject made 273 + 231. eq26 reads none.
        real, calls = legscale.verify.differentiate, []

        def counting(p, k=1):
            calls.append(k)
            return real(p, k)

        monkeypatch.setattr(legscale.verify, "differentiate", counting)
        code, _, err = run_cli(capsys, "verify", "eq19", "--n-max", "20")
        assert code == 0 and "eq19                    pass  273 cases" in err
        assert len(calls) == 273
        calls.clear()
        assert run_cli(capsys, "verify", "eq26", "--n-max", "20")[0] == 0
        assert calls == []


class TestVerifyJsonText:
    """`verify` writes its JSON as text; `json` is the oracle for every report shape."""

    @staticmethod
    def corrupt(monkeypatch, corruption):
        """One failing report per params shape, or eq13's limit verdict turned false."""
        if corruption == "eq9":  # (n, lambda, check): a_0 off by one at n = 2
            real_form = legscale.verify._derivative_form

            def bumped(p, q, n):
                rows = list(real_form(p, q, n))
                return [(rows[0][0] + rows[0][1], rows[0][1])] + rows[1:] if n == 2 else rows

            monkeypatch.setattr(legscale.verify, "_derivative_form", bumped)
        elif corruption in ("eq26", "eq24-rows"):  # (n, k, check) and (n, k, row, check)
            name, bad = ("_alpha_values", (3, 2)) if corruption == "eq26" else ("_triangular", (3, 1))
            real = getattr(legscale.derivatives, name)

            def off_by_one(n, k, *rest):
                alphas = real(n, k, *rest)
                return [alphas[0] + 1] + alphas[1:] if (n, k) == bad else alphas

            monkeypatch.setattr(legscale.derivatives, name, off_by_one)
        elif corruption == "limit":  # a nonzero depth-k entry in Doha's k = 0 row
            real_alphas = legscale.verify._doha_alphas
            monkeypatch.setattr(legscale.verify, "_doha_alphas",
                                lambda n, k: [1] + [1] * (n // 2) if k == 0 else real_alphas(n, k))

    @pytest.mark.parametrize("corruption, argv, shape", [
        (None, ("all",), None),
        ("eq9", ("eq9", "--lambda=2", "--lambda=-3/5"), ("n", "lambda", "check")),
        ("eq26", ("eq26",), ("n", "k", "check")),
        ("eq24-rows", ("eq19",), ("n", "k", "row", "check")),
        ("limit", ("eq13",), None),
    ])
    def test_text_is_json_dumps(self, capsys, monkeypatch, corruption, argv, shape):
        self.corrupt(monkeypatch, corruption)
        argv = ("verify", argv[0], "--n-max", "5", *argv[1:])
        code, out, _ = run_cli(capsys, *argv)
        reports = legscale.verify._verify_reports(legscale.cli.build_parser().parse_args(argv))
        passed = all(r.passed for r in reports)
        assert code == (0 if passed else 1)
        payload = {"n_max": 5, "status": "pass" if passed else "fail", "suites": [r.to_json() for r in reports]}
        assert out == json.dumps(payload, indent=2) + "\n"
        shapes = [tuple(r.counterexample.params) for r in reports if r.counterexample]
        assert shape in shapes if shape else shapes == []
        if corruption is None:  # eq19 ... eq26 sweep no lambda, the replay has no k
            derivative_suites = {"eq19", "eq24-rows", "eq26-vs-telescoping"}
            assert {r.subject for r in reports if r.lambdas is None} == derivative_suites
            assert [r.subject for r in reports if r.k_range is None] == ["replay"]
        if corruption == "limit":
            assert passed and reports[0].details == {"limit_variants_agree": False}

        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        cells = [row[-1] for row in csv.reader(io.StringIO(out))][1:]
        assert cells == [json.dumps(r.counterexample.to_json()) if r.counterexample else "" for r in reports]

    def test_nested_values_and_empty_containers(self):
        value = {"a": [], "b": {}, "c": [1, -20, True, False, None, "7/3"], "d": {"e": [{"f": "x"}], "g": 0}}
        for indent in (None, 2):
            assert legscale.verify._json_text(value, indent) == json.dumps(value, indent=indent)

    @pytest.mark.parametrize("text", ['say "x"', "back\\slash", "caf\u00e9", "tab\t", "line\n", "\x7f"])
    def test_a_string_json_would_escape_raises(self, text):
        assert json.dumps(text) != f'"{text}"'
        for value in (text, {"params": {"check": text}}, {text: 1}):
            with pytest.raises(ValueError, match="needs JSON escaping"):
                legscale.verify._json_text(value, 2)


class TestBuildParserForOneCommand:
    """`main` builds the arguments of the invoked command alone; the parse is
    the one a parser with every command's arguments makes."""

    @pytest.mark.parametrize("argv, command", [
        (("table", "a", "--n-max", "3", "--lambda", "-1/2", "--format", "json"), "table"),
        (("expand", "deriv", "--n", "6", "--k", "2"), "expand"),
        (("verify", "eq13", "--n-max", "3", "--lambda=2", "--lambda=-3/5", "--seed", "4"), "verify"),
        (("eval", "--n", "2", "--lambda=7/3", "--x=-3/8", "--method", "b-form"), "eval"),
        (("table", "--help"), "table"),
        (("expand", "scaled", "--n", "x"), "expand"),
        (("--", "verify", "eq9"), "verify"),
        (("frobnicate", "--n", "2"), "frobnicate"),
        ((), None),
    ], ids=["table", "expand", "verify", "eval", "table help", "bad value", "dashdash", "unknown", "none"])
    def test_same_parse_as_every_command_built(self, capsys, monkeypatch, argv, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
        outcomes = []
        for parser in (legscale.cli.build_parser(command), legscale.cli.build_parser()):
            try:
                outcome = (parser.parse_args(argv), None)
            except SystemExit as exc:
                outcome = (None, exc.code)
            outcomes.append((*outcome, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

        built, real = [], legscale.cli.build_parser  # and `main` builds for this command
        monkeypatch.setattr(legscale.cli, "build_parser",
                            lambda command=None: built.append(command) or real(command))
        monkeypatch.setattr(legscale.cli, "_cmd_eval", lambda args: 0)
        monkeypatch.setattr(legscale.output, "_cmd_table", lambda args: 0)
        monkeypatch.setattr(legscale.output, "_cmd_expand", lambda args: 0)
        monkeypatch.setattr(legscale.verify, "_cmd_verify", lambda args: 0)
        main(list(argv))
        capsys.readouterr()
        assert built == [command]


class TestEval:
    def test_endpoint_value(self, capsys):
        for method in ("direct", "a-form", "b-form"):
            code, out, _ = run_cli(
                capsys, "eval", "--n", "2", "--lambda", "2", "--x", "0.5", "--method", method
            )
            assert code == 0
            assert out == "1.0\n"

    def test_linear_case(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--lambda", "3", "--x", "0.25")
        assert code == 0
        assert out == "0.75\n"

    def test_quartic_at_half(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--n", "4", "--lambda", "1/2", "--x", "1.0", "--method", "b-form"
        )
        assert code == 0
        assert out == "-0.2890625\n"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("direct", "a-form", "b-form"):
            code, out, _ = run_cli(
                capsys, "eval", "--n", "7", "--lambda", "-3/5", "--x", "0.37",
                "--method", method, "--digits", "12",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_zero_weights_build_no_basis(self, capsys, monkeypatch):
        # At lambda = 0, 1, -1 at most one weight is nonzero; evaluating d^k P_{n-k}
        # for the zero weights made a-form 25 times slower at n = 150. `eval` reads
        # the weights from the integer cores, builds no `ScalingExpansion`, and asks
        # the basis for the ks of nonzero weight only, so none is built for a zero one.
        asked, built = [], []
        real = legscale.cli._basis_values

        def spy(form, n, x, ks):
            asked.append(sorted(ks))
            for value in real(form, n, x, asked[-1]):
                built.append(value[0])
                yield value

        def no_expansion(*args):
            raise AssertionError("eval built a ScalingExpansion")

        cases = [(method, n, lam) for method in ("a-form", "b-form") for n in (9, 10) for lam in ("0", "1", "-1")]
        expand = {"a-form": expand_derivative_form, "b-form": expand_legendre_form}
        nonzero = {case: [k for k, c in enumerate(expand[case[0]](case[2], case[1]).coeffs) if c] for case in cases}
        monkeypatch.setattr(legscale.cli, "_basis_values", spy)
        monkeypatch.setattr(legscale.scaling, "_expansion", no_expansion)
        monkeypatch.setattr(legscale.cli, "_expansion", no_expansion, raising=False)
        for method, n, lam in cases:
            asked.clear()
            built.clear()
            code, out, _ = run_cli(capsys, "eval", "--n", str(n), "--lambda", lam, "--x", "1/3", "--method", method)
            assert code == 0
            assert out == format_decimal(legendre_bonnet(n).evaluate(Fraction(lam) / 3), 12) + "\n"
            expected = nonzero[method, n, lam]
            assert asked == [expected] and sorted(built) == expected, (method, n, lam)
            assert len(expected) == (0 if lam == "0" and n % 2 else 1), (method, n, lam)

    @pytest.mark.parametrize("form", [FORM_DERIVATIVE, FORM_LEGENDRE])
    def test_integer_sum_matches_the_fraction_sum(self, monkeypatch, form, capsys):
        # The value `eval` prints is its int terms over one common denominator; it
        # must equal the sum it replaced, weight times basis value, one Fraction each.
        # At lambda = 0 and odd n every a-form weight is 0 and the sum is empty.
        printed = []
        monkeypatch.setattr(legscale.cli, "format_decimal", lambda value, digits: printed.append(value) or "")
        method = "a-form" if form == FORM_DERIVATIVE else "b-form"
        for n in range(40):
            for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-20, 7)):
                coeffs = _expansion(lam, n, form).coeffs
                for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 8), Fraction(5, 2)):
                    values = _basis_values(form, n, x, range(n // 2 + 1))
                    expected = sum((coeffs[k] * Fraction(num, den) for k, num, den in values), Fraction(0))
                    argv = ("eval", "--n", str(n), "--lambda", str(lam), "--x", str(x), "--method", method)
                    assert run_cli(capsys, *argv)[0] == 0
                    assert printed.pop() == expected, (n, lam, x)
                    if form == FORM_DERIVATIVE and lam == 0 and n % 2:
                        assert not any(coeffs) and expected == 0

    @pytest.mark.parametrize("method", ["a-form", "b-form"])
    def test_basis_comes_from_one_bonnet_walk(self, capsys, monkeypatch, method):
        # Each basis polynomial used to be a `legendre_bonnet` cache miss that
        # walked the Bonnet rows again from R_0: 76 walks at n = 150. The
        # basis values now come from scalar recurrences: no polynomial rows.
        walks = []
        real = legscale.polynomials._bonnet_rows

        def counting():
            walks.append(1)
            return real()

        for module in (legscale.polynomials, legscale.scaling, legscale.cli, legscale.verify):
            if hasattr(module, "_bonnet_rows"):
                monkeypatch.setattr(module, "_bonnet_rows", counting)
        legendre_bonnet.cache_clear()
        argv = ("eval", "--n", "150", "--lambda", "7/3", "--x", "3/8", "--method", method)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, len(walks)) == (0, 0)
        expected = legendre_bonnet(150).evaluate(Fraction(7, 3) * Fraction(3, 8))
        assert out == format_decimal(expected, 12) + "\n"

    def test_bad_inputs_are_usage_errors(self, capsys):
        assert run_cli(capsys, "eval", "--n", "2", "--lambda", "x", "--x", "0.5")[0] == 2
        assert run_cli(capsys, "eval", "--n", "2", "--lambda", "2", "--x", "zz")[0] == 2
        assert run_cli(
            capsys, "eval", "--n", "2", "--lambda", "2", "--x", "0.5", "--digits", "99"
        )[0] == 2
        assert run_cli(capsys, "eval", "--n", "2", "--lambda", "2", "--x", "0.5", "--digits", "1_2")[0] == 2
        assert run_cli(capsys, "eval", "--n", "2", "--lambda", "2", "--x", "1e1_0")[0] == 2


    @pytest.mark.parametrize(
        "x", ["1e1001", "-1E-1001", "1e999999999", "1" * 1001, "0." + "0" * 1000 + "1"]
    )
    def test_point_beyond_its_bounds_is_usage_error(self, capsys, x):
        code, out, err = run_cli(capsys, "eval", "--n", "1", "--lambda", "1", "--x", x)
        assert (code, out) == (2, "")
        assert "evaluation point" in err

    def test_point_bounds_are_checked_before_the_text_is_read(self, capsys, monkeypatch):
        read = []

        def spy(*args):
            read.append(args)
            return Fraction(*args)

        monkeypatch.setattr(legscale.cli, "Fraction", spy)
        assert run_cli(capsys, "eval", "--n", "1", "--lambda", "1", "--x", "1e999999999")[0] == 2
        assert read == []

    def test_points_at_the_bounds_are_read(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--lambda", "1", "--x", "1e1000", "--digits", "1")
        assert (code, out) == (0, "1" + "0" * 1000 + ".0\n")
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--lambda", "1", "--x", "-1E-1000")
        assert (code, out) == (0, "0.0\n")
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--lambda", "1", "--x", "7" * 1000, "--digits", "1")
        assert (code, out) == (0, "7" * 1000 + ".0\n")

    def test_value_too_long_to_render_is_usage_error(self, capsys):
        # P_5(10^1000) has 5000 digits before the point; str() of it would raise.
        code, out, err = run_cli(capsys, "eval", "--n", "5", "--lambda", "1", "--x", "1e1000")
        assert (code, out) == (2, "")
        assert "more than 4000 digits" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--n", "3", "--lambda", "-3/5", "--x", "1/2"),
        ("table", "a", "--n-max", "6", "--lambda", "-3/5"),
        ("verify", "eq9", "--n-max", "6", "--lambda", "-3/5"),
    ],
    ids=["eval", "table-a", "verify-eq9"],
)
@pytest.mark.parametrize("spelling", ["--l", "--la", "--lam", "--lamb", "--lambd"])
def test_abbreviated_lambda_takes_a_negative_value(capsys, argv, spelling):
    # argparse accepts every unambiguous prefix of --lambda, so each must
    # take a value starting with "-" as --lambda itself does.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    abbreviated = tuple(spelling if token == "--lambda" else token for token in argv)
    assert run_cli(capsys, *abbreviated)[:2] == (0, out)


class TestOversizedExactValues:
    """An exact value whose numerator or denominator is too long to print
    exits 2 under the same 4000-digit bound as `eval`, instead of a
    traceback from str() past Python's 4300-digit limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "a", "--n-max", "2", "--lambda", "7" * 3000),
            ("table", "a", "--n-max", "5", "--lambda", "7" * 1000),
            ("table", "b", "--n-max", "5", "--lambda", "7" * 1000, "--format", "json"),
            ("table", "a", "--n-max", "1", "--lambda", "1/" + "7" * 4001),
            ("expand", "scaled", "--form", "derivative", "--n", "5000", "--lambda", "7"),
            ("expand", "deriv", "--n", "3000", "--k", "1500", "--format", "csv"),
        ],
        ids=["table-a-3000-digits", "table-a-1000-digits", "table-b-json", "long-denominator",
             "expand-scaled-n5000", "expand-deriv-n3000"],
    )
    def test_value_too_long_to_print_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "more than 4000 digits" in err

    def test_values_at_the_bound_print(self, capsys):
        code, out, _ = run_cli(capsys, "table", "a", "--n-max", "1", "--lambda", "7" * 4000)
        assert (code, out) == (0, "n,k,value\n0,0,1\n1,0," + "7" * 4000 + "\n")
        assert run_cli(capsys, "table", "a", "--n-max", "1", "--lambda", "7" * 4001)[0] == 2


class TestEarlyPowerRefusal:
    """lam^n = p^n/q^n is printed (a_0 = b_0 of degree n), so when it is too
    long `table a|b` and `expand scaled` exit 2 before expanding anything.
    `expand deriv` prints a lead alpha of at least (2(n-k)+3)^(k-1) and exits
    2 before computing any alpha when that bound is too long."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "a", "--n-max", "1000000000", "--lambda", "7"),
            ("table", "b", "--n-max", "1000000000", "--lambda", "-1/7"),
            ("expand", "scaled", "--n", "5000", "--lambda", "7"),
            ("expand", "scaled", "--form", "derivative", "--n", "5000", "--lambda", "7", "--format", "csv"),
            ("expand", "deriv", "--n", "60000", "--k", "30000"),
        ],
        ids=["table-a-n1e9", "table-b-n1e9", "expand-legendre-n5000", "expand-derivative-n5000",
             "expand-deriv-n60000"],
    )
    def test_refused_within_seconds(self, argv):
        self.assert_refused(argv, timeout=5)

    def test_table_exits_at_its_first_row_too_long(self):
        # lam = 0 passes the lam^n check at any degree, but a_{n/2} =
        # (-1)^k/(2^k k!) passes 10^4000 near n = 2670: the table must stop
        # there, not build every row up to n = 10^9 before guarding.
        self.assert_refused(("table", "a", "--n-max", "1000000000", "--lambda", "0"), timeout=60)

    @staticmethod
    def assert_refused(argv, timeout):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        result = subprocess.run(
            [sys.executable, "-m", "legscale", *argv],
            capture_output=True, text=True, env=env, check=False, timeout=timeout,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert "more than 4000 digits" in result.stderr

    @pytest.mark.parametrize("n, k, computed", [
        (60000, 30000, False), (3000, 1500, False),
        # on the diagonal the bound is 3^(k-1) >= 2^(k-1): first refused up front
        # at k - 1 = 13288, the bit length of 10^4000; (2k-1)!! is refused anyway
        (13289, 13289, False), (13288, 13288, True),
    ])
    def test_deriv_refused_before_any_alpha(self, capsys, monkeypatch, n, k, computed):
        real, calls = legscale.output._doha_alphas, []
        monkeypatch.setattr(legscale.output, "_doha_alphas", lambda *args: calls.append(args) or real(*args))
        code, out, err = run_cli(capsys, "expand", "deriv", "--n", str(n), "--k", str(k))
        assert (code, out, err) == (2, "", "error: a value to print has more than 4000 digits\n")
        assert calls == ([(n, k)] if computed else [])

    def test_deriv_lead_alpha_bound(self):
        for n in range(61):
            for k in range(1, n + 1):
                assert _doha_alphas(n, k)[0] >= (2 * (n - k) + 3) ** (k - 1), (n, k)

    @staticmethod
    def refuses(lam, n):
        try:
            legscale.output._check_lambda_power(lam, n)
        except legscale.cli.UsageError:
            return True
        return False

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 12345, 10 ** 3999 + 1])
    def test_verdict_is_the_exact_power_bound(self, base):
        # Around the degree where base^n first reaches 10^4000, where bit
        # lengths alone cannot decide.
        first = next(n for n in range(14000) if base ** n >= 10 ** 4000)
        for n in range(max(first - 3, 0), first + 4):
            for lam in (Fraction(base), Fraction(-base), Fraction(1, base), Fraction(base - 1, base)):
                assert self.refuses(lam, n) == (base ** n >= 10 ** 4000), (lam, n)

    @pytest.mark.parametrize("lam", ["0", "1", "-1", "1/1"])
    def test_unit_lambdas_pass_at_any_degree(self, lam):
        assert not self.refuses(Fraction(lam), 10 ** 9)


class TestTableOutput:
    """`table` holds one row at a time: it renders and writes the rows in
    large chunks as they are made, after a guard pass when `_table_bits`
    cannot rule out a value too long to print."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_below_a_tenth_of_the_file(self, tmp_path, fmt):
        # Holding the table peaked at 0.67 (CSV) and 4.1 (JSON) times the
        # file here; one row and one chunk are about 0.02 times it.
        target = tmp_path / f"a.{fmt}"
        argv = ["table", "a", "--n-max", "400", "--lambda", "20/7", "--format", fmt, "--output", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.1 * target.stat().st_size, (peak, target.stat().st_size)

    @pytest.mark.parametrize("digits", [None, "8"], ids=["exact", "digits"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "a", "--n-max", "120", "--lambda", "20/7"),
            ("table", "b", "--n-max", "30", "--lambda", "-17/7"),
            ("table", "alpha", "--n-max", "24"),
            ("table", "a", "--n-max", "120", "--lambda", "20/7", "--format", "json"),
            ("table", "b", "--n-max", "30", "--lambda", "-17/7", "--format", "json"),
            ("table", "alpha", "--n-max", "24", "--format", "json"),
        ],
        ids=["a", "b", "alpha", "a-json", "b-json", "alpha-json"],
    )
    def test_output_file_equals_stdout(self, capsys, tmp_path, argv, digits):
        argv += ("--digits", digits) if digits else ()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "table.csv"
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("digits", [None, "8"], ids=["exact", "digits"])
    @pytest.mark.parametrize(
        "kind, lam", [("alpha", None)] + [(kind, lam) for kind in ("a", "b")
                                          for lam in ("0", "1", "-1", "2", "7/3", "-17/7", "12/8")],
    )
    def test_json_is_the_text_json_dumps_gives(self, capsys, kind, lam, digits):
        # The JSON table is written as text, not through `json`: it must be
        # json.dumps(indent=2) of the payload whose rows are the CSV's cells,
        # the indices as ints and the values as strings.
        for n_max in (0, 1, 9):
            argv = ("table", kind, "--n-max", str(n_max)) + (("--lambda", lam) if lam else ())
            argv += ("--digits", digits) if digits else ()
            code, csv_out, _ = run_cli(capsys, *argv)
            assert code == 0
            header, *lines = [line.split(",") for line in csv_out.splitlines()]
            indices = header.index("value")
            rows = [{name: int(cell) if j < indices else cell for j, (name, cell) in enumerate(zip(header, line))}
                    for line in lines]
            payload = {"kind": kind, "lambda": format_rational(Fraction(lam)) if lam else None,
                       "n_max": n_max, "rows": rows}
            assert run_cli(capsys, *argv, "--format", "json") == (0, json.dumps(payload, indent=2) + "\n", "")

    def test_large_table_is_written_in_few_chunks(self, monkeypatch):
        # Each write to an unbuffered stream is a system call: a table of
        # several 64 KiB takes a few writes, not one per line or per row.
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        for fmt in ("csv", "json"):
            writes = []
            monkeypatch.setattr(sys, "stdout", Recorder())
            assert main(["table", "a", "--n-max", "120", "--lambda", "20/7", "--format", fmt]) == 0
            size = sum(writes)
            assert size == len(sys.stdout.getvalue()) > 4 * 65536, fmt
            assert len(writes) <= size // 65536 + 1, fmt
            assert min(writes[:-1]) >= 65536, fmt

    def test_refused_table_creates_no_file(self, tmp_path):
        # lam = 0 passes the early lam^n check; the row guard stops the table
        # near n = 2674, before the output file is opened.
        target = tmp_path / "refused.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        result = subprocess.run(
            [sys.executable, "-m", "legscale", "table", "a", "--n-max", "1000000000", "--lambda", "0",
             "--output", str(target)],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert "more than 4000 digits" in result.stderr
        assert not target.exists()

    def test_kept_a_rows_stay_valid(self):
        # `table` holds one row at a time, but a caller may keep the rows
        # `_a_rows` yields: every row must be a new list, not one the
        # generator changes to make the next row.
        lam = Fraction(20, 7)
        rows = list(_a_rows(lam, 80))
        assert len({id(row) for row in rows}) == len(rows)
        for n, row in enumerate(rows):
            assert row == [(c.numerator, c.denominator) for c in expand_derivative_form(lam, n).coeffs], n

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3)])
    def test_a_rows_share_one_zero(self, lam):
        # At lam = 0, 1, -1 almost every entry is 0: one shared (0, 1), not a
        # fresh tuple per entry (35 MB at n_max 1500, lam = 0).
        rows = list(_a_rows(lam, 60))
        for n, row in enumerate(rows):
            assert row == [(c.numerator, c.denominator) for c in expand_derivative_form(lam, n).coeffs], n
        zeros = [pair for row in rows for pair in row if pair[0] == 0]
        assert len(zeros) > 400 if lam in (0, 1, -1) else not zeros
        assert len({id(pair) for pair in zeros}) == len(zeros[:1])


class TestTableBits:
    """`_table_bits` bounds every numerator and denominator a table prints,
    so a table whose bound is below the print limit is written as it is made
    and only one that may pass it is walked a second time."""

    LAMBDAS = ["0", "1", "-1", "7/3", "-15/7", "1/7", "-3/5", "12/8", "20/7", "-1/1000", "999/1000",
               "12345/2", "2/12345"]

    @staticmethod
    def random_lambdas(seed, count=8):
        rng = random.Random(seed)
        return [f"{rng.choice('-+')}{rng.randrange(10 ** rng.randrange(1, 12))}/"
                f"{rng.randrange(1, 10 ** rng.randrange(1, 12))}" for _ in range(count)]

    @pytest.mark.parametrize(
        "kind, n_maxes", [("a", (0, 1, 2, 61)), ("b", (0, 1, 2, 24)), ("alpha", (0, 1, 2, 40))],
        ids=["a", "b", "alpha"],
    )
    def test_every_printed_value_is_below_the_bound(self, capsys, kind, n_maxes):
        lambdas = [None] if kind == "alpha" else self.LAMBDAS + self.random_lambdas(len(kind))
        for lam in lambdas:
            for n_max in n_maxes:
                argv = ("table", kind, "--n-max", str(n_max)) + (("--lambda", lam) if lam else ())
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0, argv
                bits = legscale.output._table_bits(kind, Fraction(lam) if lam else None, n_max)
                widest = max(int(part).bit_length()
                             for line in out.splitlines()[1:] for part in line.rsplit(",", 1)[1].split("/"))
                assert widest <= bits, (argv, widest, bits)

    @pytest.mark.parametrize(
        "argv, walks",
        [
            (("table", "a", "--n-max", "200", "--lambda", "20/7"), 1),
            (("table", "a", "--n-max", "200", "--lambda", "20/7", "--format", "json"), 1),
            (("table", "alpha", "--n-max", "30"), 1),
            (("table", "a", "--n-max", "1", "--lambda", "7" * 4000), 2),
            (("table", "b", "--n-max", "2", "--lambda", "-1/" + "9" * 1999, "--format", "json"), 2),
        ],
        ids=["a", "a-json", "alpha", "a-long-lambda", "b-long-lambda"],
    )
    def test_rows_are_walked_again_only_near_the_print_limit(self, capsys, monkeypatch, argv, walks):
        made = legscale.output._table_rows
        calls = []

        def spy(*args):
            calls.append(args)
            return made(*args)

        monkeypatch.setattr(legscale.output, "_table_rows", spy)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert len(calls) == walks

    def test_guard_pass_of_independent_rows_starts_at_the_limit(self, capsys, monkeypatch):
        # The rows of b are independent and B bounds every degree up to its
        # n_max, so only degrees whose own B reaches the limit are guarded:
        # here just n = 40, where the guard used to make all 41 rows twice.
        made = legscale.output.expand_legendre_form
        degrees = []

        def spy(lam, n):
            degrees.append(n)
            return made(lam, n)

        monkeypatch.setattr(legscale.output, "expand_legendre_form", spy)
        lam = "1/" + "9" * 99
        limit = legscale.cli._VALUE_LIMIT.bit_length()
        bits = [legscale.output._table_bits("b", Fraction(lam), n) for n in (39, 40)]
        assert bits[0] < limit <= bits[1]
        code, out, _ = run_cli(capsys, "table", "b", "--n-max", "40", "--lambda", lam)
        assert code == 0 and out  # its text is in GOLDEN_STDOUT
        assert degrees == [40] + list(range(41))
        # a refusal from the shortened guard pass: lam^2 = 1/q^2 prints, but
        # b_1(2) = (lam^2 - 1)/2 has the 4001-digit denominator 2 q^2
        degrees.clear()
        code, out, err = run_cli(capsys, "table", "b", "--n-max", "2", "--lambda", "-1/" + "9" * 1999 + "8")
        assert (code, out, degrees) == (2, "", [2])
        assert "more than 4000 digits" in err

    def test_refusal_after_the_guard_pass_writes_nothing(self, capsys, tmp_path):
        # The guard pass, not the lam^n check, refuses here: lam^2 = 4/q^2
        # prints, but a_1(2) = (4 - q^2) / (2 q^2) has a 4001-digit denominator.
        target = tmp_path / "refused.json"
        argv = ("table", "a", "--n-max", "2", "--lambda", "2/" + "7" * 2000, "--format", "json")
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        assert "more than 4000 digits" in err
        assert not target.exists()


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = ("verify", "all", "--n-max", "5", "--seed", "11")
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_table_determinism(self, capsys):
        argv = ("table", "alpha", "--n-max", "6", "--format", "json")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


# sha256 of stdout for invocations whose output must never change. The first
# five were recorded before the closed-form alpha replaced the recurrence on
# the production paths, the rest before the verify suites moved onto one
# sweep driver and `table` onto one row model.
GOLDEN_STDOUT = {
    ("table", "b", "--n-max", "40", "--lambda", "17/7"):
        "3d80bd1568bef361801ce8ed28ae821871c0e044981146b7cc2c05e5c927177c",
    ("table", "alpha", "--n-max", "32"):
        "000473a4dddb274ffb055dd94ceb5b68ecfe328efdab0d2082f85a35eeef239e",
    ("expand", "scaled", "--form", "legendre", "--n", "60", "--lambda", "-16/7"):
        "cce501bee4ba40ec146f5b68eb11e2669f034d69fa610037a44b87bfdd4ae0f3",
    ("expand", "deriv", "--k", "5", "--n", "160"):
        "0723991aed72624d4a14dcaee2dfb73a4cafbe1479a9205844a0988164d9f47e",
    ("eval", "--method", "b-form", "--n", "64", "--lambda", "17/7", "--x", "3/8"):
        "e5ab6f9f809848fdd1388d8f9dde112b84f2caf9b530c31a85e927aa3371e2a0",
    ("verify", "all", "--n-max", "8", "--seed", "3"):
        "7ee3bb65bb2e71c39543fa4471582b6c68a674b114b995c2d2b817108a09bbe4",
    ("verify", "all", "--n-max", "8", "--format", "csv"):
        "209019a3abac75b24731d597087ce6c041737e272869449f6142ace9a998b75b",
    ("table", "a", "--n-max", "12", "--lambda", "-3/5", "--digits", "20", "--format", "json"):
        "765df98e8e12bc51e097cfbc26ee267c2fea8fc1233cf9c6d126c1fa48da02b5",
    ("table", "alpha", "--n-max", "6", "--digits", "5"):
        "89b95c71dbebccfe2f664e42afb389be1d15b8df6097bb31b5b8ed1b0f6f59df",
    ("eval", "--method", "a-form", "--n", "40", "--lambda", "17/7", "--x", "3/8"):
        "1e10f3f51cfcbd84b9837bd9c1d469731157a338f81cd8da21e63fac76293b47",
    ("eval", "--method", "b-form", "--n", "300", "--lambda", "7/3", "--x", "3/8"):
        "ec23f9107ab4e1f60fcc98f5758340d1ad37ac15d339d52a0b42209139068712",
    ("eval", "--method", "a-form", "--n", "150", "--lambda", "2", "--x", "3/8"):
        "17573dc694a8a82b5e243f3c0cfc862e6fe007309deb91fad06959c40a7246e3",
    ("eval", "--method", "direct", "--n", "300", "--lambda", "7/3", "--x", "3/8"):
        "ec23f9107ab4e1f60fcc98f5758340d1ad37ac15d339d52a0b42209139068712",
    ("table", "a", "--n-max", "200", "--lambda", "-15/7"):
        "297f173e09bc099b453af93172f6416345b851a200b015c5148bbc54d1db91bd",
    ("table", "a", "--n-max", "60", "--lambda", "0"):
        "38fa5f1ffc8e6e7860d8bb9833ecbe2d5c97c96be15288dfac533b46c8ae0931",
    ("table", "a", "--n-max", "40", "--lambda", "12/8", "--format", "json"):
        "0d1f6045884820960ef33c3f250ed709461c2e728105d336e9035d83073ec667",
    ("table", "alpha", "--n-max", "20", "--format", "json"):
        "70fb92abfd2eac88de8ea687d3f40a653837a7ebead520a5acb6db0709a30f8a",
    ("table", "b", "--n-max", "30", "--lambda", "-1", "--digits", "8"):
        "ba66818d2c9bd9baf5371fd3c555be6692c7ecd1362a412e5374a9c8af16c782",
    ("table", "b", "--n-max", "40", "--lambda", "20/7"):
        "c51147aad5b2ed0d255ddc2057c5b0723266dc7787c6ba2b2fed0c13b7dea8df",
    # recorded before `eval` took its basis from one Bonnet walk and every
    # CSV went through one writer
    ("verify", "all", "--n-max", "8", "--seed", "3", "--format", "csv"):
        "efd143d3ea38e382537855979a8efc910d330ad9c18274db0fea727a18d7d05f",
    ("expand", "deriv", "--n", "40", "--k", "3", "--format", "csv"):
        "eaaef80ce1edbcc46eacd5de0b379042a308f21a3424393b1812a7ff8b76cefa",
    ("expand", "scaled", "--n", "30", "--lambda", "-17/7", "--form", "derivative", "--format", "csv"):
        "6d049d399a69038dc924aa1d6e0003f2d7c9562f6623b971c13a654a54e507f7",
    ("eval", "--method", "a-form", "--n", "151", "--lambda", "-1", "--x", "5/8", "--digits", "30"):
        "6e99da2146ffd6d4cb565c3c869bc3292c98f7d5931fda32dfa3bfddbf66bc77",
    ("eval", "--method", "b-form", "--n", "150", "--lambda", "0", "--x", "5/8"):
        "f29f257dccc67ffade435cecf1258f91b788aac4db9830e89305f141e7363d39",
    # recorded before `table` stopped holding its rows; the last one prints
    # through the guard pass
    ("table", "b", "--n-max", "30", "--lambda", "-17/7", "--digits", "8", "--format", "json"):
        "8e3a5a47789f50ba4388e60b6f0d86ae88c7afcfbcf5e9948190d5c3a74ab20f",
    ("table", "alpha", "--n-max", "24", "--digits", "5", "--format", "json"):
        "061ba8aab1fd5c63963c46be952105efa19576742462f0c322600a592e826682",
    ("table", "a", "--n-max", "2", "--lambda", "7" * 1900):
        "d83e936694fdfa1d9ca38874ff67d086e855bce66d17b67aa5b3ca1b899bc230",
    # recorded before `eval` summed scalar recurrences instead of basis
    # polynomials and the guard pass of `table b` started at the limit
    ("eval", "--method", "a-form", "--n", "600", "--lambda", "-15/7", "--x", "-1/3"):
        "9ef1eec4576d3834f22c2d9e2f822784e98719c390c370fb65ccd0b190aa04cb",
    ("eval", "--method", "direct", "--n", "151", "--lambda", "-15/7", "--x", "2.5"):
        "98e436933fdfee0eae94715a21de467b533f6a7cf49c3d9d82d2cd558fb17242",
    ("eval", "--method", "b-form", "--n", "151", "--lambda", "7/3", "--x", "-1/3", "--digits", "30"):
        "cca3be049384600b0bb6cb73ff16e08a8530ff664de695d65b36bd1ce0f4aa1b",
    ("table", "b", "--n-max", "40", "--lambda", "1/" + "9" * 99):
        "36e7d5ab9bab68aae919dc86886a8e2c0700fa5e9d90070dc366adc09a9cc3d9",
    # the benchmark's size, recorded before the projection read shared Bonnet
    # rows and the replay dropped the terms D^n annihilates
    ("verify", "all", "--n-max", "20", "--seed", "1"):
        "e1ec2594249f8d9b5442d11a08895d70f68240145f4f982a2584783bc30b4fa8",
    # recorded before `expand` wrote its JSON as text: an empty alphas map
    # and the one-entry expansion of degree 0
    ("expand", "deriv", "--n", "3", "--k", "5"):
        "35dffd1828ced686802019d162f695eff9f71d46a954fe36bf2a280ef2aba357",
    ("expand", "scaled", "--n", "0", "--lambda", "0"):
        "12bde7376ece756cfac338a31b7789de93f3449eb770c4242a102d5c68efc128",
}


# Exit code and sha256 of the help text (stdout) and of one argparse error per
# command (stderr), at 80 columns; recorded before `table`, `expand` and
# `verify` moved out of `cli`.
GOLDEN_USAGE = {
    ("--help",): (0, "e99fa472d7fc2ead7307d01a4a44cc47dd4aaee7dcf7a482eda11fdba742f64a"),
    ("table", "--help"): (0, "b41ed313f6d1f6f1b7d535531c97662283e053b6ccb37913b99189a16b5f9a2f"),
    ("expand", "--help"): (0, "1283338e4d2aa2ec992516f790f5bfa86e29e392f061182a040008bd25ccb104"),
    ("verify", "--help"): (0, "a72abdb30fb8fc1e0ecc29aba3e0bc96a356410a9f165967c8d433d828adc796"),
    ("eval", "--help"): (0, "ade98beec188a6c8e38962e2bef8581c85e94115104377ab1ed153f059b88e11"),
    ("table", "a"): (2, "7c2503e1605e9b233f9c5169134dc710f32d9cdd1e662f7695cbad9115ab19f1"),
    ("expand", "scaled"): (2, "aa1a6ed92ae77e0fedaf5701d1d36d1ca2125a6c4aa05f283cba294fc2992960"),
    ("verify", "--n-max=-1"): (2, "085a3e993a26586ff00b3e5333a65e858dd05de4c34f7d3cf088411f8f4307b6"),
    ("eval", "--n", "2"): (2, "4bcfae54b8e52759e840f42193f7a5045d06043d31cae33b78beb01f4af33048"),
}


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv", list(GOLDEN_STDOUT),
        ids=lambda argv: " ".join(t if len(t) < 40 else f"{t[0]}x{len(t)}" for t in argv),
    )
    def test_stdout_is_byte_identical(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[argv]

    @pytest.mark.parametrize("argv", list(GOLDEN_USAGE), ids=" ".join)
    def test_help_and_usage_errors_are_byte_identical(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
        code, out, err = run_cli(capsys, *argv)
        text, other = (err, out) if code else (out, err)
        assert (code, other) == (GOLDEN_USAGE[argv][0], "")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_USAGE[argv][1]


class TestModuleEntryPoints:
    README_TABLE_B = "n,k,value\n0,0,1\n1,0,2\n2,0,4\n2,1,3/2\n"
    # One usage error per command: `table`, `expand` and `verify` raise theirs
    # in `legscale.output`, which `main` must still map to exit 2 when `cli`
    # itself is run as `__main__`.
    USAGE_ERRORS = {
        ("table", "a", "--n-max", "3"): "error: --lambda is required for kind 'a'\n",
        ("expand", "deriv", "--n", "3"): "error: --k is required for derivative expansions\n",
        ("verify", "eq26", "--seed", "1"): "error: --seed does not apply to suite 'eq26'\n",
        ("eval", "--n", "2", "--lambda", "2", "--x", "zz"): "error: invalid evaluation point: 'zz'\n",
    }

    @staticmethod
    def run_module(module, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, check=False
        )

    @pytest.mark.parametrize("module", ["legscale", "legscale.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        result = self.run_module(module, "table", "b", "--lambda", "2", "--n-max", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout == self.README_TABLE_B

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda argv: argv[0])
    @pytest.mark.parametrize("module", ["legscale", "legscale.cli"])
    def test_python_dash_m_maps_usage_errors_to_exit_2(self, module, argv):
        result = self.run_module(module, *argv)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", self.USAGE_ERRORS[argv])
