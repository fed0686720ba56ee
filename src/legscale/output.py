"""`table` and `expand`: the commands that write coefficients to stdout or
`--output` as `--format` csv or json. `cli.main` imports this module only
when one of them runs, so `eval` and `verify` (which lives in
`legscale.verify`) never compile it."""

from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Tuple

from .cli import (
    _TOO_LONG, _VALUE_LIMIT, EXIT_OK, UsageError, _check_digits, _check_printable, _emit, _parse_lambda,
    format_decimal,
)
from .rationals import format_rational
from .scaling import FORM_LEGENDRE, _a_rows, _doha_alphas, _expansion, expand_legendre_form


def _check_lambda_power(lam: Fraction, n: int) -> None:
    """Refuse up front what `_check_printable` would refuse later: a_0 = b_0 of
    degree n is lam^n = p^n/q^n, already reduced. m = max(|p|, q) of b bits has
    2^(n(b-1)) <= m^n < 2^(nb), so a huge n is decided without building m^n."""
    base, bits = max(abs(lam.numerator), lam.denominator), _VALUE_LIMIT.bit_length()
    low, high = n * (base.bit_length() - 1), n * base.bit_length()
    if low >= bits or (high >= bits and base ** n >= _VALUE_LIMIT):
        raise UsageError(_TOO_LONG)


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
        values = _expansion(lam, args.n, form).coeffs
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

