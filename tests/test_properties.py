"""Hypothesis properties of the rational literals, the expansion JSON
formats and the CLI entry point."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from legscale import (
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    DerivExpansion,
    ScalingExpansion,
    format_rational,
    parse_rational,
)
from legscale.cli import main

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


@given(r=st.fractions())
@settings(deadline=None, max_examples=100)
def test_parse_rational_inverts_format_rational(r):
    assert parse_rational(format_rational(r)) == r


def _json_round_trip(value):
    return type(value).from_json(json.loads(json.dumps(value.to_json())))


@given(n=st.integers(0, 20), k=st.integers(0, 24), data=st.data())
@settings(deadline=None, max_examples=60)
def test_deriv_expansion_json_round_trip(n, k, data):
    count = 0 if k > n else (n - k) // 2 + 1
    alphas = tuple(data.draw(st.lists(rationals, min_size=count, max_size=count)))
    expansion = DerivExpansion(n, k, alphas)
    assert _json_round_trip(expansion) == expansion


@given(
    lam=rationals,
    n=st.integers(0, 20),
    form=st.sampled_from((FORM_DERIVATIVE, FORM_LEGENDRE)),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_scaling_expansion_json_round_trip(lam, n, form, data):
    count = n // 2 + 1
    coeffs = tuple(data.draw(st.lists(rationals, min_size=count, max_size=count)))
    expansion = ScalingExpansion(lam, n, form, coeffs)
    assert _json_round_trip(expansion) == expansion


# --- main(argv) over the flag grammar ---

# Valid and invalid values for each flag, as strategies. Degrees stay at 12
# or below, so no drawn invocation runs long; --output is left out, as it
# writes files. --x also takes exponent notation, drawn on both sides of the
# +-1000 exponent bound (a point that is read can still give a value too
# long to render, which is a usage error too).
_EXPONENT_POINTS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "-2.5", "0.37", "3/8"]),
    st.sampled_from(["e", "E"]),
    st.integers(-1200, 1200),
)
_SIZES = ([str(v) for v in range(13)], ["-1", "x", "٣", "1.5", ""])
_FLAG_LISTS = {
    "--n": _SIZES,
    "--n-max": _SIZES,
    "--k": _SIZES,
    "--lambda": (["0", "1", "-1", "2", "-3/5", "7/3"], ["1/0", "0.5", "x", "٣", "--n"]),
    "--digits": (["1", "12", "50"], ["0", "51", "-3", "x"]),
    "--seed": (["0", "3"], ["-2", "x", "٣"]),
    "--x": (["0.5", "3/8", "-1", "1e3", "-0.37"], ["1/0", "zz", "٠.٥", "1e999999999", "1" * 1001]),
    "--format": (["json", "csv"], ["xml"]),
    "--form": ([FORM_DERIVATIVE, FORM_LEGENDRE], ["other"]),
    "--method": (["direct", "a-form", "b-form"], ["c-form"]),
}
_FLAG_VALUES = {flag: tuple(map(st.sampled_from, pair)) for flag, pair in _FLAG_LISTS.items()}
_FLAG_VALUES["--x"] = (_FLAG_VALUES["--x"][0] | _EXPONENT_POINTS, _FLAG_VALUES["--x"][1])
# Each command's positional choices (the last one invalid) and its own flags;
# `plot` is not a command.
_GRAMMAR = {
    "table": (["a", "b", "alpha", "zeta"], ["--n-max", "--lambda", "--digits", "--format"]),
    "expand": (["scaled", "deriv", "both"], ["--n", "--k", "--lambda", "--form", "--format"]),
    "verify": (
        ["all", "eq9", "eq13", "eq19", "eq26", "replay", "eq99"],
        ["--n-max", "--lambda", "--seed", "--format"],
    ),
    "eval": ([], ["--n", "--lambda", "--x", "--method", "--digits"]),
    "plot": ([], []),
}


@st.composite
def _argvs(draw):
    """Mostly well-formed argvs, with now and then an invalid value, a
    missing value, a flag of another command or --help."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    positionals, own_flags = _GRAMMAR[command]
    argv = [command]
    if positionals and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(positionals)))
    flags = [f for f in draw(st.permutations(own_flags)) if draw(st.integers(0, 3))]
    if not draw(st.integers(0, 4)):
        extra = draw(st.sampled_from(sorted(_FLAG_VALUES) + ["--help"]))
        flags.insert(draw(st.integers(0, len(flags))), extra)
    for flag in flags:
        argv.append(flag)
        if flag == "--help" or not draw(st.integers(0, 19)):
            continue
        valid, invalid = _FLAG_VALUES[flag]
        argv.append(draw(valid if draw(st.integers(0, 5)) else invalid))
    return argv


@given(argv=_argvs())
@settings(deadline=None, max_examples=150)
def test_main_returns_an_exit_code_and_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


@given(
    n=st.integers(0, 12),
    lam=st.sampled_from(_FLAG_LISTS["--lambda"][0]),
    x=_EXPONENT_POINTS,
    method=st.sampled_from(_FLAG_LISTS["--method"][0]),
)
@settings(deadline=None, max_examples=60)
def test_eval_at_exponent_points_prints_or_refuses(n, lam, x, method):
    argv = ["eval", "--n", str(n), "--lambda", lam, "--x", x, "--method", method, "--digits", "3"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert (code == 0) == bool(out.getvalue())
    assert code in (0, 2)
