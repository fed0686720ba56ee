"""Command-line front end: coefficient tables, expansions, verification
sweeps, and numeric evaluation.

Exit codes are fixed for CI use: 0 success, 1 verification failure,
2 usage error, 3 I/O failure. Rationals print exactly by default; decimal
rendering is opt-in and confined to this layer.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .rationals import _parse_index, format_rational, parse_rational
from .scaling import (
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    _a_rows,
    _basis_values,
    _doha_alphas,
    _expansion,
    expand_legendre_form,
)

if TYPE_CHECKING:
    from .verify import VerificationReport

# Only `verify` loads more (`verify`, `json`), as it runs: start-up is a
# large share of a short invocation.

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


def _check_lambda_power(lam: Fraction, n: int) -> None:
    """Refuse up front what `_check_printable` would refuse later: a_0 = b_0 of
    degree n is lam^n = p^n/q^n, already reduced. m = max(|p|, q) of b bits has
    2^(n(b-1)) <= m^n < 2^(nb), so a huge n is decided without building m^n."""
    base, bits = max(abs(lam.numerator), lam.denominator), _VALUE_LIMIT.bit_length()
    low, high = n * (base.bit_length() - 1), n * base.bit_length()
    if low >= bits or (high >= bits and base ** n >= _VALUE_LIMIT):
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


def _batched(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined into chunks of at least 64 KiB (the last one may be
    shorter): an unbuffered stream makes each write a system call."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= 65536:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def _json_text(payload: object) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _table_bits(kind: str, lam: Optional[Fraction], n_max: int) -> int:
    """B such that every numerator and denominator `table kind` prints for
    degrees up to n_max is below 2^B, from bit lengths alone.

    Write b = int.bit_length, N = n_max, H = N // 2, lam = p/q and, for
    degree n <= N, h = n // 2. An int f >= 1 is below 2^b(f), so a product
    of such factors is below 2 to the sum of their b (or is 1 = 2^0 when
    there are none): the final + 1 covers both cases.

    a:  a_k = p^(n-2k) (p^2-q^2)^k / (q^n 2^k k!) (eq. 9, k <= h), and the
        printed pair is its reduced form, so |num| <= |p|^(n-2k) |p^2-q^2|^k
        and den <= q^n 2^k k^k:
        B = N max(b(p), b(q)) + H (b(|p^2-q^2|) + 1 + b(H)) + 1.
    alpha: entry i of d^k P_n (`scaling._doha_alphas`) is
        (2m+1) C(k+i-1, i) times k-1 odd factors below 2n, m = n-k-2i. As
        C(k+i-1, i) <= 2^(k+i-1) and k+i <= n, it is at most 2^n (2n+1)^n:
        B = N (1 + b(2N+1)) + 1.
    b:  the den divides q^n 2^k k! (`scaling._legendre_form`), so q^n 2^h h!.
        b_k = (2m+1)/2 int_{-1}^{1} P_n(lam x) P_m(x) dx, m = n-2k, with
        |P_m(x)| <= 1 there. For |y| <= L = max(1, |lam|),
        P_n(y) = 2^-n sum_j C(n, j)^2 (y-1)^(n-j) (y+1)^j gives
        |P_n(y)| <= C(2n, n) L^n <= 4^n L^n. So |b_k| <= (2n+1) 4^n L^n and,
        as L q = max(|p|, q), |num| <= (2n+1) 4^n max(|p|, q)^n 2^h h!:
        B = b(2N+1) + N (2 + b(max(|p|, q))) + H (1 + b(H)) + 1.
    """
    b, half = int.bit_length, n_max // 2
    if kind == "alpha":
        return n_max * (1 + b(2 * n_max + 1)) + 1
    p, q = lam.numerator, lam.denominator
    if kind == "a":
        return n_max * max(b(p), b(q)) + half * (b(abs(p * p - q * q)) + 1 + b(half)) + 1
    return b(2 * n_max + 1) + n_max * (2 + b(max(abs(p), q))) + half * (1 + b(half)) + 1


def _table_rows(
    kind: str, lam: Optional[Fraction], n_max: int, start: int = 0
) -> Iterator[Tuple[Tuple[int, ...], list]]:
    """The rows of `table kind` for degrees start ... n_max as made, each as
    (index prefix, reduced (num, den) pairs); Doha's ints for alpha are pairs
    (a, 1). The rows of a, a recurrence, are made from degree 0 regardless."""
    degrees = range(start, n_max + 1)
    if kind == "alpha":
        return (((n, k), [(a, 1) for a in _doha_alphas(n, k)]) for n in degrees for k in range(n + 1))
    pairs = islice(_a_rows(lam, n_max), start, None) if kind == "a" else (
        [(c.numerator, c.denominator) for c in expand_legendre_form(lam, n).coeffs] for n in degrees)
    return (((n,), row) for n, row in zip(degrees, pairs))


def _cmd_table(args: argparse.Namespace) -> int:
    if args.digits is not None:
        _check_digits(args.digits)
    lam: Optional[Fraction] = None
    if args.kind == "alpha":
        if args.lam is not None:
            raise UsageError("--lambda does not apply to kind 'alpha'")
    elif args.lam is None:
        raise UsageError(f"--lambda is required for kind {args.kind!r}")
    else:
        lam = _parse_lambda(args.lam)
        _check_lambda_power(lam, args.n_max)

    # All or nothing, decided before the first byte: a value below 2^B, B
    # under the bit length of 10^4000, is below 2^13287 < 10^4000 and prints.
    # B grows with n_max and bounds every lower degree, so rows are guarded
    # (exit 2 at the first one too long) only from the first degree whose B
    # reaches the limit, then made again to render: one row is ever held.
    limit = _VALUE_LIMIT.bit_length()
    if _table_bits(args.kind, lam, args.n_max) >= limit:
        start = next(n for n in range(args.n_max + 1) if _table_bits(args.kind, lam, n) >= limit)
        for _, row in _table_rows(args.kind, lam, args.n_max, start):
            _check_printable(max(abs(num), den) for num, den in row)

    indices = ["n", "k", "i"] if args.kind == "alpha" else ["n", "k"]
    if args.format == "csv":
        head = ",".join(indices) + (",value\n" if args.digits is None else ",value,float\n")
        keys, opening, mid, sep, end, tail = [""] * 3, "", ",", ",", "\n", ""
    else:
        # The text of json.dumps(payload, indent=2) + "\n": the kind is a fixed word, and
        # lambda and the cells hold only digits, "-", "/" and ".", which JSON never escapes.
        lam_text = "null" if lam is None else f'"{format_rational(lam)}"'
        head = f'{{\n  "kind": "{args.kind}",\n  "lambda": {lam_text},\n  "n_max": {args.n_max},\n  "rows": ['
        keys, opening, tail = [f'\n      "{name}": ' for name in indices], ",\n    {", "\n  ]\n}\n"
        mid, sep, end = ',\n      "value": "', '",\n      "float": "', '"\n    }'

    def cells() -> Iterator[str]:  # lead j mid value [sep decimal] end; the lead made once a row
        for prefix, row in _table_rows(args.kind, lam, args.n_max):
            lead = opening + "".join(f"{key}{i}," for key, i in zip(keys, prefix)) + keys[-1]
            for j, (num, den) in enumerate(row):
                value = f"{num}/{den}" if den != 1 else num
                decimal = f"{sep}{format_decimal(Fraction(num, den), args.digits)}" if args.digits else ""
                yield f"{lead}{j}{mid}{value}{decimal}{end}"

    chunks = cells()
    first = next(chunks).lstrip(",")  # every table has the row n = 0; no "," opens JSON's first row
    _emit(args, _batched(chain([head, first], chunks, [tail])))
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.what == "scaled":
        if args.lam is None:
            raise UsageError("--lambda is required for scaled expansions")
        if args.k is not None:
            raise UsageError("--k does not apply to scaled expansions")
        lam = _parse_lambda(args.lam)
        _check_lambda_power(lam, args.n)
        form = args.form or FORM_LEGENDRE
        values = _expansion(lam, args.n, form, 0).coeffs
        key, keys = "k", range(len(values))
        head = f'"lambda": "{format_rational(lam)}",\n  "n": {args.n},\n  "form": "{form}",\n  "coeffs"'
    else:
        if args.k is None:
            raise UsageError("--k is required for derivative expansions")
        for flag, value in (("--lambda", args.lam), ("--form", args.form)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to derivative expansions")
        n, k = args.n, args.k  # at 1 <= k <= n the lead alpha is >= (2(n-k)+3)^(k-1)
        if k <= n and (k - 1) * ((2 * (n - k) + 3).bit_length() - 1) >= _VALUE_LIMIT.bit_length():
            raise UsageError(_TOO_LONG)
        values = _doha_alphas(n, k) if k <= n else []
        key, keys = "degree", range(n - k, -1, -2)
        head = f'"n": {n},\n  "k": {k},\n  "alphas"'
    _check_printable(values)
    # a Fraction's str is format_rational's text
    if args.format == "csv":
        text = f"{key},value\n" + "".join(f"{m},{v}\n" for m, v in zip(keys, values))
    else:  # json.dumps(record.to_json(), indent=2) + "\n", written as `_cmd_table` writes it
        entries = ",".join(f'\n    "{m}": "{v}"' for m, v in zip(keys, values))
        text = f"{{\n  {head}: " + (f"{{{entries}\n  }}" if entries else "{}") + "\n}\n"
    _emit(args, [text])
    return EXIT_OK


def _verify_reports(args: argparse.Namespace) -> List[VerificationReport]:
    from . import verify as verification

    if args.suite in ("eq19", "eq26"):  # the derivative suites sweep no lambda
        for flag, value in (("--lambda", args.lam), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to suite {args.suite!r}")
    if args.lam:
        lambdas: Tuple[Fraction, ...] = tuple(_parse_lambda(t) for t in args.lam)
        if args.suite == "replay" and any(v == 0 for v in lambdas):
            raise UsageError("lambda=0 invalid for replay")
    else:
        lambdas = verification.DEFAULT_LAMBDAS
    if args.seed is not None:
        lambdas = lambdas + verification.random_lambdas(RANDOM_LAMBDA_COUNT, args.seed)
    replay_lambdas = tuple(v for v in lambdas if v != 0)
    wanted = SUITES[1:] if args.suite == "all" else (args.suite,)
    if "replay" in wanted and not replay_lambdas:  # refused before any suite runs
        raise UsageError("replay requires at least one nonzero lambda")

    reports = [
        verification.verify_scaling_identity(args.n_max, lambdas, form)
        for suite, form in (("eq9", FORM_DERIVATIVE), ("eq13", FORM_LEGENDRE)) if suite in wanted
    ]
    # one (n, k) pass; eq19 brings eq24-rows, its solve's surplus rows
    subjects = ("eq19", "eq24-rows") * ("eq19" in wanted) + ("eq26-vs-telescoping",) * ("eq26" in wanted)
    if subjects:
        reports += verification._derivative_reports(args.n_max, subjects)
    if "replay" in wanted:
        reports.append(verification.verify_replay(args.n_max, replay_lambdas))
    return reports


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = _verify_reports(args)
    all_passed = all(r.passed for r in reports)

    if args.format == "csv":
        import json

        def quoted(text: str) -> str:  # as csv.QUOTE_MINIMAL quotes a cell holding '"'
            return '"' + text.replace('"', '""') + '"'

        header = ("subject", "status", "n_min", "n_max", "k_min", "k_max", "lambdas", "counterexample")
        chunks = [",".join(map(str, row)) + "\n" for row in (header, *(
            (
                r.subject, r.status, *r.n_range, *(r.k_range or ("", "")),
                " ".join(map(format_rational, r.lambdas or ())),
                quoted(json.dumps(r.counterexample.to_json())) if r.counterexample else "",
            )
            for r in reports
        ))]
    else:
        chunks = [_json_text(
            {
                "n_max": args.n_max,
                "status": "pass" if all_passed else "fail",
                "suites": [r.to_json() for r in reports],
            }
        )]
    _emit(args, chunks)
    for r in reports:
        sys.stderr.write(f"{r.subject:<24}{r.status}  {r.cases} cases\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_digits(args.digits)
    lam = _parse_lambda(args.lam)
    point = _parse_point(args.x)
    if args.method == "direct":  # P_n(lam*x) is 1 * P_n(y) at y = lam*x
        form, coeffs, point = FORM_LEGENDRE, (Fraction(1),), lam * point
    else:
        form = FORM_DERIVATIVE if args.method == "a-form" else FORM_LEGENDRE
        coeffs = _expansion(lam, args.n, form, 0).coeffs
    # at lambda = 0, 1, -1 most weights are 0: evaluate no basis value for them
    nonzero = [k for k, c in enumerate(coeffs) if c]
    values = _basis_values(form, args.n, point, nonzero)
    value = sum((coeffs[k] * v for k, v in values), Fraction(0))
    _check_printable((int(value),))  # the decimal rendering prints the integer part in full
    sys.stdout.write(format_decimal(value, args.digits) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legscale",
        description="Exact expansions of scaled Legendre polynomials and their derivatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--output", metavar="PATH", default=None, help="write to PATH instead of stdout")

    table = sub.add_parser("table", help="tabulate a coefficient family")
    table.add_argument("kind", choices=("a", "b", "alpha"))
    table.add_argument("--n-max", type=_nonneg_int, required=True)
    table.add_argument("--lambda", dest="lam", metavar="P/Q", default=None,
                       help="scaling factor (kinds a and b only, required there)")
    table.add_argument("--digits", type=_ascii_int, default=None,
                       help="append a decimal rendering column (1..50)")
    add_output_flags(table, "csv")

    expand = sub.add_parser("expand", help="emit a single expansion")
    expand.add_argument("what", choices=("scaled", "deriv"))
    expand.add_argument("--n", type=_nonneg_int, required=True)
    expand.add_argument("--k", type=_nonneg_int, default=None, help="derivative order (deriv only)")
    expand.add_argument("--lambda", dest="lam", metavar="P/Q", default=None,
                        help="scaling factor (scaled only)")
    expand.add_argument("--form", choices=(FORM_DERIVATIVE, FORM_LEGENDRE), default=None,
                        help=f"scaled only (default {FORM_LEGENDRE})")
    add_output_flags(expand, "json")

    verify_p = sub.add_parser("verify", help="run verification sweeps")
    verify_p.add_argument("suite", choices=SUITES, nargs="?", default="all")
    verify_p.add_argument("--n-max", type=_nonneg_int, default=12)
    verify_p.add_argument("--lambda", dest="lam", action="append", metavar="P/Q",
                          help="override the default sweep set (repeatable; not for eq19, eq26)")
    verify_p.add_argument("--seed", type=_ascii_int, default=None,
                          help=f"extend the sweep with {RANDOM_LAMBDA_COUNT} seeded random rationals "
                               "(not for eq19, eq26)")
    add_output_flags(verify_p, "json")

    eval_p = sub.add_parser("eval", help="evaluate P_n(lambda*x) to a decimal")
    eval_p.add_argument("--n", type=_nonneg_int, required=True)
    eval_p.add_argument("--lambda", dest="lam", metavar="P/Q", required=True)
    eval_p.add_argument("--x", required=True, help="evaluation point (decimal or p/q)")
    eval_p.add_argument("--method", choices=("direct", "a-form", "b-form"), default="direct")
    eval_p.add_argument("--digits", type=_ascii_int, default=12)

    return parser


_HANDLERS = {
    "table": _cmd_table,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
}

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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_signed_values(argv))
    except SystemExit as exc:  # argparse already printed its message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
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
    run()
