"""Command-line front end: the parser, the input checks and the writer every
command shares, and `eval`. `main` imports `legscale.output` (`table`,
`expand`) or `legscale.verify` (`verify`) only when that command runs, and
the parser adds the invoked command's arguments alone: each call is a fresh
process that compiles what it imports, and `eval` needs none of them.

Exit codes are fixed for CI use: 0 success, 1 verification failure,
2 usage error, 3 I/O failure. Rationals print exactly by default; decimal
rendering is opt-in and confined to the CLI.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import import_module
from math import lcm
from typing import Iterable, List, Optional, Sequence, Union

from .rationals import _parse_index, parse_rational
from .scaling import FORM_DERIVATIVE, FORM_LEGENDRE, _basis_values, _derivative_form, _legendre_form

__all__ = ["main", "run", "format_decimal"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

RANDOM_LAMBDA_COUNT = 20
SUITES = ("all", "eq9", "eq13", "eq19", "eq26", "replay")

# Bounds on --x, checked before the text is read as a number, since
# Fraction("1e999999999") would build a 10^999999999 integer.
MAX_POINT_DIGITS = 1000
MAX_POINT_EXPONENT = 1000
# A value to print is refused past this many digits (eval's integer part, an
# exact numerator or denominator): str() of a longer int raises past 4300.
MAX_VALUE_DIGITS = 4000
_VALUE_LIMIT = 10 ** MAX_VALUE_DIGITS
_TOO_LONG = f"a value to print has more than {MAX_VALUE_DIGITS} digits"


class UsageError(Exception):
    """Bad arguments detected after parsing; mapped to exit code 2."""


def format_decimal(value: Fraction, digits: int) -> str:
    """Correctly rounded decimal rendering with `digits` places.

    Trailing zeros are trimmed, keeping at least one digit after the point,
    so exact values print in their shortest form ("1.0", "-0.2890625").
    """
    scaled = round(value * 10 ** digits)  # exact round-half-even on Fractions
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** digits)
    text = f"{sign}{whole}.{str(frac).zfill(digits)}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _ascii_int(text: str) -> int:
    """An integer flag by `rationals._parse_index`; non-ASCII text gets its own message."""
    if not text.isascii():
        raise argparse.ArgumentTypeError(f"not an ASCII integer: {text!r}")
    return _parse_index(text)  # a ValueError gets argparse's message


def _nonneg_int(text: str) -> int:
    value = _ascii_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse_lambda(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_point(text: str) -> Fraction:
    try:
        if not text.isascii() or "_" in text:  # Fraction() reads "1/2_0" as 1/20
            raise ValueError
        if sum(ch.isdigit() for ch in text) > MAX_POINT_DIGITS:
            raise UsageError(f"evaluation point has more than {MAX_POINT_DIGITS} digits")
        _, marker, exponent = text.lower().partition("e")
        if marker and abs(int(exponent)) > MAX_POINT_EXPONENT:
            raise UsageError(f"evaluation point exponent lies outside +-{MAX_POINT_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"invalid evaluation point: {text!r}") from None


def _check_printable(values: Iterable[Union[Fraction, int]]) -> None:
    """Refuse (exit 2) to print a value whose numerator or denominator is too long."""
    if any(max(abs(v.numerator), v.denominator) >= _VALUE_LIMIT for v in values):
        raise UsageError(_TOO_LONG)


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= 50:
        raise UsageError("digits must lie in 1..50")


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    if args.output is None or args.output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_digits(args.digits)
    lam = _parse_lambda(args.lam)
    point = _parse_point(args.x)
    if args.method == "direct":  # P_n(lam*x) is 1 * P_n(y) at y = lam*x
        form, rows, point = FORM_LEGENDRE, [(1, 1)], lam * point
    else:
        form = FORM_DERIVATIVE if args.method == "a-form" else FORM_LEGENDRE
        core = _derivative_form if form == FORM_DERIVATIVE else _legendre_form
        rows = core(lam.numerator, lam.denominator, args.n)
    weights = {k: row for k, row in enumerate(rows) if row[0]}  # zero weights get no basis value
    terms = [(*weights[k], num, den) for k, num, den in _basis_values(form, args.n, point, weights)]
    common = lcm(*(w_den * den for _, w_den, _, den in terms))  # the int terms over one denominator
    value = Fraction(sum(w * num * (common // (w_den * den)) for w, w_den, num, den in terms), common)
    _check_printable((int(value),))  # the decimal rendering prints the integer part in full
    sys.stdout.write(format_decimal(value, args.digits) + "\n")
    return EXIT_OK


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with every command registered (the root help and errors list all
    four) but only the arguments of `command`, or of every command when it is None."""
    parser = argparse.ArgumentParser(
        prog="legscale",
        description="Exact expansions of scaled Legendre polynomials and their derivatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--output", metavar="PATH", default=None, help="write to PATH instead of stdout")

    table = sub.add_parser("table", help="tabulate a coefficient family")
    if command in (None, "table"):
        table.add_argument("kind", choices=("a", "b", "alpha"))
        table.add_argument("--n-max", type=_nonneg_int, required=True)
        table.add_argument("--lambda", dest="lam", metavar="P/Q", default=None,
                           help="scaling factor (kinds a and b only, required there)")
        table.add_argument("--digits", type=_ascii_int, default=None,
                           help="append a decimal rendering column (1..50)")
        add_output_flags(table, "csv")

    expand = sub.add_parser("expand", help="emit a single expansion")
    if command in (None, "expand"):
        expand.add_argument("what", choices=("scaled", "deriv"))
        expand.add_argument("--n", type=_nonneg_int, required=True)
        expand.add_argument("--k", type=_nonneg_int, default=None, help="derivative order (deriv only)")
        expand.add_argument("--lambda", dest="lam", metavar="P/Q", default=None,
                            help="scaling factor (scaled only)")
        expand.add_argument("--form", choices=(FORM_DERIVATIVE, FORM_LEGENDRE), default=None,
                            help=f"scaled only (default {FORM_LEGENDRE})")
        add_output_flags(expand, "json")

    verify_p = sub.add_parser("verify", help="run verification sweeps")
    if command in (None, "verify"):
        verify_p.add_argument("suite", choices=SUITES, nargs="?", default="all")
        verify_p.add_argument("--n-max", type=_nonneg_int, default=12)
        verify_p.add_argument("--lambda", dest="lam", action="append", metavar="P/Q",
                              help="override the default sweep set (repeatable; not for eq19, eq26)")
        verify_p.add_argument("--seed", type=_ascii_int, default=None,
                              help=f"extend the sweep with {RANDOM_LAMBDA_COUNT} seeded random rationals "
                                   "(not for eq19, eq26)")
        add_output_flags(verify_p, "json")

    eval_p = sub.add_parser("eval", help="evaluate P_n(lambda*x) to a decimal")
    if command in (None, "eval"):
        eval_p.add_argument("--n", type=_nonneg_int, required=True)
        eval_p.add_argument("--lambda", dest="lam", metavar="P/Q", required=True)
        eval_p.add_argument("--x", required=True, help="evaluation point (decimal or p/q)")
        eval_p.add_argument("--method", choices=("direct", "a-form", "b-form"), default="direct")
        eval_p.add_argument("--digits", type=_ascii_int, default=12)

    return parser


# Flags whose values may start with "-" (negative rationals); fused with "="
# so argparse does not mistake the value for an option string. argparse also
# takes the prefixes --l ... --lambd for --lambda: no other option starts --l.
_SIGNED_VALUE_FLAGS = ("--x", *("--lambda"[:end] for end in range(3, 9)))


def _fuse_signed_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _SIGNED_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    tokens = _fuse_signed_values(sys.argv[1:] if argv is None else argv)
    # the root takes no option with a value: its first token not starting with "-" is the command
    command = next((token for token in tokens if not token.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(tokens)
    except SystemExit as exc:  # argparse already printed its message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        module = import_module(f".{'verify' if args.command == 'verify' else 'output'}", __package__)
        return getattr(module, f"_cmd_{args.command}")(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    # This file runs as `__main__` under `python -m legscale.cli`: hand over to
    # `legscale.cli`, whose `UsageError` is the class `output` and `verify` raise.
    from legscale.cli import run

    run()
