"""Workload definitions: the CLI invocations each workload runs for a seed.

Every workload is a fixed list of CLI invocations. The seed only picks the
rationals the invocations receive (lambda and the evaluation point x), so
the same seed always gives the same argv lists. Each draw has a fixed
denominator and a numerator from a narrow range, because the cost and the
memory of exact arithmetic grow with the digits of lambda and x, and every
seed must give the same amount of work.

Each invocation belongs to a group (a per-command metric such as
table_b_s); a group's time is the sum of its invocations' times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Invocation:
    group: str  # per-command metric name, e.g. "table_b_s"
    argv: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: Tuple[Invocation, ...]
    # Two-size invocation pairs (index of n, index of 2n) whose inclusive
    # time in one function gives its growth exponent in n.
    growth_pairs: Dict[str, Tuple[int, int]]


WHY = {
    "sweep": "verify --n-max 20 over 27 lambdas, one process per suite: the only workload "
    "using verify, the projection oracle and all three alpha routes together",
    "tables": "table a|b|alpha and expand at several n: pure coefficient generation, "
    "no polynomial calls, each alpha grid filled and read once",
    "eval": "eval direct/a-form/b-form at two degrees each: high-degree Bonnet "
    "polynomials, no verify calls, direct and a-form bypass the alpha grid",
}


def _lambda(rng: random.Random) -> str:
    """+-p/7 with p in 15..20, so 2 < |lambda| < 3."""
    sign = "-" if rng.random() < 0.5 else ""
    return f"{sign}{rng.randint(15, 20)}/7"


def _draws(seed: int) -> Tuple[str, str]:
    rng = random.Random(seed)
    return _lambda(rng), f"{rng.choice((1, 3, 5, 7))}/8"  # 0 < x < 1


# The CLI's default sweep set; --lambda replaces it, so it is passed explicitly.
DEFAULT_LAMBDAS = ("0", "1", "-1", "2", "1/2", "-3/5", "7/3")


def _sweep(seed: int) -> List[Invocation]:
    # The work of `verify all --n-max 20 --seed S` (27 lambdas), but the 20
    # extra lambdas are drawn here at a fixed size (the CLI's own draw changes
    # the cost by about a fifth between seeds), and each suite runs in its own
    # process: five shorter invocations give a steadier median per run on a
    # noisy host than one long one. eq19 also runs the eq24 surplus rows.
    rng = random.Random(seed)
    lambdas = DEFAULT_LAMBDAS + tuple(_lambda(rng) for _ in range(20))
    out = []
    for suite in ("eq9", "eq13", "eq19", "eq26", "replay"):
        argv = ["verify", suite, "--n-max", "20"]
        if suite in ("eq9", "eq13", "replay"):
            for lam in lambdas:
                if not (suite == "replay" and lam == "0"):  # as `verify all` does
                    argv += ["--lambda", lam]
        out.append(Invocation("verify_s", tuple(argv)))
    return out


def _tables(seed: int) -> List[Invocation]:
    lam, _ = _draws(seed)
    return [
        Invocation("table_a_s", ("table", "a", "--n-max", "200", "--lambda", lam)),
        Invocation("table_b_s", ("table", "b", "--n-max", "40", "--lambda", lam)),
        Invocation("table_alpha_s", ("table", "alpha", "--n-max", "32")),
        Invocation("expand_scaled_s", ("expand", "scaled", "--form", "legendre", "--n", "30", "--lambda", lam)),
        Invocation("expand_scaled_s", ("expand", "scaled", "--form", "legendre", "--n", "60", "--lambda", lam)),
        Invocation("expand_scaled_s", ("expand", "scaled", "--form", "derivative", "--n", "200", "--lambda", lam)),
        Invocation("expand_deriv_s", ("expand", "deriv", "--k", "5", "--n", "80")),
        Invocation("expand_deriv_s", ("expand", "deriv", "--k", "5", "--n", "160")),
    ]


def _eval(seed: int) -> List[Invocation]:
    lam, x = _draws(seed)
    out = []
    for group, method, sizes in (
        ("eval_direct_s", "direct", (150, 300)),
        ("eval_aform_s", "a-form", (50, 100)),
        ("eval_bform_s", "b-form", (32, 64)),
    ):
        for n in sizes:
            out.append(Invocation(group, ("eval", "--method", method, "--n", str(n), "--lambda", lam, "--x", x)))
    return out


_BUILDERS = {"sweep": _sweep, "tables": _tables, "eval": _eval}

_GROWTH = {
    "sweep": {},
    "tables": {"derivatives.deriv_expand_recurrence": (6, 7)},
    "eval": {
        "polynomials.legendre_bonnet": (0, 1),
        "polynomials.Poly.mul": (2, 3),
        "scaling.expand_legendre_form": (4, 5),
    },
}

# Growth exponents reported by the traced run, whichever workload supplies them.
GROWTH_FUNCTIONS = (
    "polynomials.legendre_bonnet",
    "scaling.expand_legendre_form",
    "derivatives.deriv_expand_recurrence",
    "polynomials.Poly.mul",
)

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs drawn from `seed`."""
    return Workload(name, WHY[name], tuple(_BUILDERS[name](seed)), _GROWTH[name])
