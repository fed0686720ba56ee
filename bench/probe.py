"""Host-speed probe: a fresh interpreter doing a fixed stdlib-only job.

    python3 bench/probe.py

The benchmark times this script from spawn to exit, like every CLI
invocation. It starts an interpreter, imports the standard-library modules
legscale imports and builds Legendre coefficients to DEGREE over Fractions
by the three-term recurrence: the same kind of work a CLI child does, with
none of legscale's code, so no change to legscale changes its time. Only
the host does. On a shared host most of the drift between runs hits fresh
processes (start-up, first-touch memory), which a probe inside the
long-lived benchmark process does not see.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as legscale.cli does)
import csv  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction

DEGREE = 60

prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
for m in range(1, DEGREE):
    a, b = Fraction(2 * m + 1, m + 1), Fraction(m, m + 1)
    nxt = [Fraction(0)] + [a * c for c in cur]
    for i, c in enumerate(prev):
        nxt[i] -= b * c
    prev, cur = cur, nxt
