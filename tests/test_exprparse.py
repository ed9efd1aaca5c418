import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnmcore.errors import (
    ExprSyntaxError,
    NonFiniteResult,
    UnbalancedParens,
    UnknownFunction,
)
from pnmcore.exprparse import (
    FUNCTIONS,
    MAX_DEPTH,
    Binary,
    Number,
    ScalarFn,
    Unary,
    Variable,
    numeric_derivative,
    parse_expr,
)


def ev(text, t=0.0):
    return float(ScalarFn.parse(text)(t))


def test_basic_arithmetic():
    assert ev("1+2*3") == 7.0
    assert ev("(1+2)*3") == 9.0
    assert ev("7/2") == 3.5
    assert ev("2-5") == -3.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_stacking():
    assert ev("--3") == 3.0
    assert ev("2*-3") == -6.0


def test_variable_and_functions():
    assert np.isclose(ev("exp(-t)", 1.0), math.exp(-1.0))
    assert np.isclose(ev("cosh(t)^2 - sinh(t)^2", 0.7), 1.0)
    assert np.isclose(ev("sqrt(abs(-4))"), 2.0)
    assert np.isclose(ev("tanh(t)", 0.5), math.tanh(0.5))


def test_scientific_notation():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0


def test_vectorized_evaluation():
    f = ScalarFn.parse("t^2 + 1")
    ts = np.linspace(0.0, 2.0, 5)
    assert np.allclose(f(ts), ts**2 + 1)


def test_negative_base_fractional_power_is_nan():
    assert math.isnan(ev("(-2)^0.5"))


def test_eval_finite_raises_on_nan():
    f = ScalarFn.parse("log(t)")
    with pytest.raises(NonFiniteResult):
        f.eval_finite(0.0)


def test_syntax_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("1 + * 2")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("2 +")


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        parse_expr("foo(t)")


def test_unbalanced_parens():
    with pytest.raises(UnbalancedParens):
        parse_expr("(1 + 2")
    with pytest.raises(UnbalancedParens):
        parse_expr("1 + 2)")


def test_non_ascii_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("t²")


def test_constant():
    f = ScalarFn.constant(3.5)
    assert float(f(123.0)) == 3.5


def test_numeric_derivative():
    f = ScalarFn.parse("t^3")
    assert abs(numeric_derivative(f, 2.0) - 12.0) < 1e-5


def test_tree_shape_of_mixed_precedence():
    # + - and * / associate left, ^ right, unary minus binds looser than ^
    two_to_t = Binary("^", Number(2.0), Variable())
    assert parse_expr("1-2*t/3+-t^2^t-4") == Binary(
        "-",
        Binary(
            "+",
            Binary("-", Number(1.0), Binary("/", Binary("*", Number(2.0), Variable()), Number(3.0))),
            Unary(Binary("^", Variable(), two_to_t)),
        ),
        Number(4.0),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda k: "(" * k + "t" + ")" * k,
        lambda k: "-" * k + "t",
        lambda k: "sin(" * k + "t" + ")" * k,
        lambda k: "+".join(["t"] * k),
    ],
)
def test_nesting_limit(build):
    # one level below the limit parses and evaluates; deeper input is a syntax error
    ok = MAX_DEPTH - 2
    assert math.isfinite(float(ScalarFn.parse(build(ok))(0.5)))
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_expr(build(20 * MAX_DEPTH))


# expression text over t: constants (the exponents 2, 0.5 and -1 among
# them, where numpy's scalar and array powers used to differ), every
# function, unary minus and the five operators
_atoms = st.sampled_from(["t", "0", "1", "2", "3", "0.5", "1.5", "7.25", "1e-3", "-1"])
expressions = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds("{}({})".format, st.sampled_from(sorted(FUNCTIONS)), sub),
        st.builds("-({})".format, sub),
        st.builds("({}){}({})".format, sub, st.sampled_from("+-*/^"), sub),
        st.builds("({})^{}".format, sub, st.sampled_from(["2", "0.5", "(-1)", "3", "(-2)"])),
    ),
    max_leaves=12,
)
times = st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1e-300, 0.5, 2.0])), max_size=8)


@settings(max_examples=300, deadline=None)
@given(text=expressions, ts=times, seed=st.integers(0, 2**32 - 1))
def test_scalar_and_array_evaluation_agree_bitwise(text, ts, seed):
    f = ScalarFn.parse(text)
    xs = np.concatenate([ts, np.random.default_rng(seed).uniform(-10.0, 10.0, 32)])
    at_once = f(xs)
    assert at_once.shape == xs.shape
    for x, inside in zip(xs.tolist(), at_once):
        alone = np.float64(f(x))
        assert alone.tobytes() == inside.tobytes() or (np.isnan(alone) and np.isnan(inside)), (text, x, alone, inside)
