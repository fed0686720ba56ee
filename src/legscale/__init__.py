"""Exact expansions of scaled Legendre polynomials and their derivatives.

Identities are verified by exact coefficient equality, never by
floating-point closeness: polynomials hold Python-int numerators over one
common denominator, and values leave them as `fractions.Fraction`.

Importing the package loads none of its submodules. Each public name is
imported from its submodule on first access (PEP 562), so a CLI command
loads only the modules it runs, and `legscale.<submodule>` imports that
submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("rationals", (
            "as_rational", "parse_rational", "format_rational", "falling_factorial",
            "rising_factorial", "binomial",
        )),
        ("polynomials", (
            "Poly", "LegendreSeries", "legendre_bonnet", "legendre_rodrigues", "legendre_murphy",
            "differentiate", "scale_argument", "inner_product", "project_to_legendre", "to_poly",
            "expansion_basis",
        )),
        ("derivatives", (
            "DerivExpansion", "deriv_expand_telescoping", "deriv_expand_triangular",
            "deriv_expand_recurrence", "deriv_expand_closed", "murphy_deriv_series",
            "alpha_closed_recurrence",
        )),
        ("scaling", (
            "FORM_DERIVATIVE", "FORM_LEGENDRE", "ScalingExpansion", "a_coefficient",
            "b_coefficient", "b_coefficient_untruncated", "alpha_nki", "expand_derivative_form",
            "expand_legendre_form", "expand_legendre_form_untruncated",
        )),
        ("verify", (
            "DEFAULT_LAMBDAS", "NONZERO_LAMBDAS", "Counterexample", "VerificationReport",
            "verify_scaling_identity", "verify_derivative_identity", "verify_surplus_rows",
            "verify_recurrence_vs_telescoping", "verify_replay", "replay_rodrigues_derivation",
            "random_lambdas",
        )),
    )
    for name in names
}
_SUBMODULES = ("rationals", "polynomials", "derivatives", "scaling", "verify", "cli", "output")

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
