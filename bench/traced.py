"""Run one CLI invocation with every layer boundary traced.

    python3 bench/traced.py OUT.json INVOCATION_ID ARGV...

The public functions of each legscale module are replaced by timing
wrappers before `cli.main(argv)` runs; nothing under src/ is edited. A
function imported with `from .x import y` is bound in several module
namespaces, so each binding of the same object is replaced, and `Poly`
methods are replaced on the class. Verification sweeps are named after the
subject of the report they return (eq9, eq13, ...).

Per function the tracer counts calls, inclusive time and self time (span
minus the time of child spans). Spans carry the invocation id, their own
id and their parent's id; those shorter than MIN_SPAN_NS are counted but
not kept, which bounds memory and keeps the tree consistent, since a parent
lasts at least as long as any child. Everything is written to OUT.json when
the invocation ends.
"""

import functools
import importlib
import json
import sys
import time

MIN_SPAN_NS = 100_000

# Module -> the public functions traced in it (also the per-layer metric list).
LAYERS = {
    "rationals": ("falling_factorial", "rising_factorial", "binomial", "format_rational", "parse_rational"),
    "polynomials": (
        "legendre_bonnet", "differentiate", "scale_argument", "inner_product",
        "project_to_legendre", "to_poly",
    ),
    "derivatives": (
        "deriv_expand_telescoping", "deriv_expand_triangular", "deriv_expand_recurrence",
        "murphy_deriv_series",
    ),
    "scaling": (
        "a_coefficient", "b_coefficient", "b_coefficient_untruncated", "expand_derivative_form",
        "expand_legendre_form", "expand_legendre_form_untruncated",
    ),
    "verify": (
        "verify_scaling_identity", "verify_derivative_identity", "verify_surplus_rows",
        "verify_recurrence_vs_telescoping", "verify_replay",
    ),
    "cli": ("main",),
}
POLY_METHODS = {"mul": "__mul__", "add": "__add__", "evaluate": "evaluate"}
VERIFY_SUBJECTS = ("eq9", "eq13", "eq19", "eq24-rows", "eq26-vs-telescoping", "replay")


class Tracer:
    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self.stats = {}  # name -> [calls, self_ns, total_ns]
        self.spans = []  # (span id, parent id, name, start_ns, end_ns)
        self.dropped = 0
        self.bonnet_misses = 0
        self._stack = []  # [span id, child_ns] per open span
        self._next_id = 0

    def wrap(self, name, fn, subject_of_result=False):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                label = f"verify.{result.subject}" if subject_of_result and result is not None else name
                entry = self.stats.setdefault(label, [0, 0, 0])
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if duration >= MIN_SPAN_NS:
                    self.spans.append((frame[0], parent, label, start, end))
                else:
                    self.dropped += 1

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"legscale.{layer}") for layer in LAYERS}
        poly = modules["polynomials"].Poly
        replacements = {}
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                replacements[id(original)] = (
                    original,
                    self.wrap(f"{layer}.{fname}", original, subject_of_result=layer == "verify"),
                )
        for short, attr in POLY_METHODS.items():
            original = vars(poly)[attr]
            replacements[id(original)] = (original, self.wrap(f"polynomials.Poly.{short}", original))
        namespaces = [importlib.import_module("legscale"), *modules.values(), poly]
        for owner in namespaces:
            for key, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, key, hit[1])

    def dump(self, path: str, argv) -> None:
        payload = {
            "invocation": self.invocation,
            "argv": list(argv),
            "stats": self.stats,
            "bonnet_misses": self.bonnet_misses,
            "spans": [[self.invocation, *span] for span in self.spans],
            "dropped_spans": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main() -> int:
    from legscale import cli, polynomials

    out_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    original_bonnet = polynomials.legendre_bonnet
    tracer = Tracer(invocation)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.bonnet_misses = original_bonnet.cache_info().misses
        tracer.dump(out_path, argv)


if __name__ == "__main__":
    sys.exit(main())
