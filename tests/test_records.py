"""The immutable value records (`rationals.Record` and its four subclasses)
keep what the frozen dataclasses they replaced gave: value equality and
hashing, refused assignment, the dataclass-style repr, `__post_init__`
validation (also through `from_json`) and unshared defaults."""

import pickle
from fractions import Fraction

import pytest

from legscale import (
    FORM_DERIVATIVE,
    FORM_LEGENDRE,
    Counterexample,
    DerivExpansion,
    LegendreSeries,
    ScalingExpansion,
    VerificationReport,
)

# Two independently built but equal instances of each record, and a third
# that differs in one field. Records holding a dict are unhashable, as the
# frozen dataclasses were.
CASES = {
    "DerivExpansion": (
        lambda: DerivExpansion(3, 1, (Fraction(5), Fraction(1))),
        lambda: DerivExpansion(3, 1, (Fraction(5), Fraction(2))),
        True,
    ),
    "ScalingExpansion": (
        lambda: ScalingExpansion(Fraction(2), 2, FORM_LEGENDRE, (Fraction(4), Fraction(3, 2))),
        lambda: ScalingExpansion(Fraction(2), 2, FORM_DERIVATIVE, (Fraction(4), Fraction(3, 2))),
        True,
    ),
    "Counterexample": (
        lambda: Counterexample({"n": 2}, ("1",), ("2",)),
        lambda: Counterexample({"n": 3}, ("1",), ("2",)),
        False,
    ),
    "VerificationReport": (
        lambda: VerificationReport("eq9", (0, 4), (0, 2), (Fraction(1, 2),), True, None),
        lambda: VerificationReport("eq9", (0, 4), (0, 2), (Fraction(1, 2),), True, None, cases=3),
        False,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equal_values_compare_equal(case):
    make, make_other, hashable = case
    assert make() == make()
    assert make() is not make()
    assert make() != make_other()
    assert make() != tuple(getattr(make(), f) for f in type(make()).__slots__)
    if hashable:
        assert hash(make()) == hash(make())
        assert len({make(), make(), make_other()}) == 2
    else:
        with pytest.raises(TypeError):
            hash(make())


def test_fields_cannot_be_assigned_or_deleted(case):
    record = case[0]()
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_repr_names_every_field(case):
    record = case[0]()
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in type(record).__slots__)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_pickle_round_trip(case):
    record = case[0]()
    assert pickle.loads(pickle.dumps(record)) == record


def test_keyword_and_positional_construction_agree():
    assert DerivExpansion(n=3, k=1, alphas=(Fraction(5), Fraction(1))) == CASES["DerivExpansion"][0]()
    with pytest.raises(TypeError):
        DerivExpansion(3, 1)  # missing field
    with pytest.raises(TypeError):
        DerivExpansion(3, 1, (), 4)  # too many fields
    with pytest.raises(TypeError):
        DerivExpansion(3, 1, (), n=3)  # field given twice
    with pytest.raises(TypeError):
        DerivExpansion(3, 1, alphas=(), order=2)  # no such field


def test_wrong_length_coefficients_raise():
    with pytest.raises(ValueError):
        DerivExpansion(3, 1, (Fraction(5),))
    with pytest.raises(ValueError):
        ScalingExpansion(Fraction(2), 4, FORM_LEGENDRE, (Fraction(1),) * 4)
    with pytest.raises(ValueError):
        ScalingExpansion(Fraction(2), 2, "monomial", (Fraction(1), Fraction(0)))


def test_from_json_input_is_validated():
    # from_json builds a dense tuple of the length n asks for, so the shape
    # check fires on a bad degree or form in the JSON.
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": -1, "k": 0, "alphas": {}})
    with pytest.raises(ValueError):
        ScalingExpansion.from_json({"lambda": "2", "n": -2, "form": FORM_LEGENDRE, "coeffs": {}})
    with pytest.raises(ValueError):
        ScalingExpansion.from_json({"lambda": "2", "n": 2, "form": "monomial", "coeffs": {"0": "1"}})


@pytest.mark.parametrize(
    "coeffs, n",
    [({"0": "1", "5": "3"}, 2), ({"0": "1", "-1": "3"}, 2), ({"1": "0"}, 0), ({"2": "1"}, 3)],
    ids=["above", "negative", "zero-past-n0", "past-floor-n-half"],
)
def test_scaling_from_json_refuses_an_index_outside_the_expansion(coeffs, n):
    with pytest.raises(ValueError):
        ScalingExpansion.from_json({"lambda": "2", "n": n, "form": FORM_LEGENDRE, "coeffs": coeffs})


@pytest.mark.parametrize(
    "n, k, alphas",
    [
        (3, 1, {"2": "5", "1": "7", "0": "1"}),  # degree 1 has the wrong parity
        (3, 1, {"4": "1"}),  # above n-k
        (3, 1, {"-2": "1"}),
        (2, 3, {"0": "0"}),  # k > n: the derivative has no alpha at all
        (2, 3, {"-1": "1"}),
    ],
    ids=["parity", "above", "negative", "k-above-n", "k-above-n-negative"],
)
def test_deriv_from_json_refuses_a_degree_outside_the_expansion(n, k, alphas):
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": n, "k": k, "alphas": alphas})


# int() reads "1_0" as 10, the Arabic-Indic "\u0663" and the fullwidth
# "\uff13" as 3 and 2.7 as 2; the decoders take ASCII digits only, as
# `parse_rational` does, and an int or digit text, never a float.
LENIENT_INDICES = ["1_0", "\u0663", "\uff13", "2.5", "", "3/1"]


@pytest.mark.parametrize("text", LENIENT_INDICES)
def test_index_keys_take_ascii_digits_only(text):
    with pytest.raises(ValueError):
        ScalingExpansion.from_json({"lambda": "2", "n": 20, "form": FORM_LEGENDRE, "coeffs": {text: "1"}})
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": 20, "k": 0, "alphas": {text: "1"}})
    with pytest.raises(ValueError):
        LegendreSeries.from_json({"terms": {text: "1"}})


@pytest.mark.parametrize("text", LENIENT_INDICES)
def test_degree_and_order_take_ascii_digits_only(text):
    with pytest.raises(ValueError):
        ScalingExpansion.from_json({"lambda": "2", "n": text, "form": FORM_LEGENDRE, "coeffs": {}})
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": text, "k": 0, "alphas": {}})
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": 20, "k": text, "alphas": {}})


def test_fractional_degrees_are_refused_not_floored():
    with pytest.raises(TypeError):
        LegendreSeries({2.7: 1})
    with pytest.raises(TypeError):
        ScalingExpansion.from_json({"lambda": "2", "n": 2.7, "form": FORM_LEGENDRE, "coeffs": {}})
    with pytest.raises(TypeError):
        DerivExpansion.from_json({"n": 3, "k": 1.0, "alphas": {}})


def test_index_text_in_ascii_digits_is_read():
    # Signed and padded ASCII digits read as int() reads them; the shape
    # checks then judge the value.
    assert ScalingExpansion.from_json(
        {"lambda": "2", "n": " 4", "form": FORM_LEGENDRE, "coeffs": {"+2": "3"}}
    ).coeffs == (0, 0, 3)
    assert DerivExpansion.from_json({"n": "4", "k": "1", "alphas": {"03": "5"}}).alphas == (5, 0)
    assert LegendreSeries.from_json({"terms": {"2": "1", "0": "-1"}}).terms == {0: -1, 2: 1}
    with pytest.raises(ValueError):
        DerivExpansion.from_json({"n": 3, "k": 1, "alphas": {"-0": "1", "-2": "1"}})


def test_from_json_fills_absent_entries_with_zero():
    sparse = ScalingExpansion.from_json({"lambda": "2", "n": 4, "form": FORM_LEGENDRE, "coeffs": {"2": "3"}})
    assert sparse.coeffs == (0, 0, 3)
    assert DerivExpansion.from_json({"n": 4, "k": 1, "alphas": {"1": "3"}}).alphas == (0, 3)
    assert DerivExpansion.from_json({"n": 2, "k": 3, "alphas": {}}) == DerivExpansion(2, 3, ())


def test_report_validates_and_keeps_defaults_apart():
    with pytest.raises(ValueError):
        VerificationReport("eq9", (0, 1), None, None, False, None)
    first = VerificationReport("eq9", (0, 1), None, None, True, None)
    second = VerificationReport("eq9", (0, 1), None, None, True, None)
    assert (first.details, first.cases) == ({}, 0)
    first.details["limit_variants_agree"] = False
    assert second.details == {}
    assert first.details is not second.details
