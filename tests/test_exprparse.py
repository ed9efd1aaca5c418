import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnmcore.errors import (
    ExprSyntaxError,
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
    eval_ast,
    eval_dual,
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


def test_dual_derivative():
    f = ScalarFn.parse("t^3")
    assert f.dual(2.0) == (8.0, 12.0)
    # a constant exponent has no ln a term: t^2 and (1-t)^2 have derivatives at t <= 0 and t >= 1
    v, d = ScalarFn.parse("t^2+(1-t)^2").dual(np.array([0.0, 1.0, 2.0]))
    assert v.tolist() == [1.0, 1.0, 5.0] and d.tolist() == [-2.0, 2.0, 6.0]
    assert ScalarFn.parse("2^t").dual(1.0)[1] == 2.0 * math.log(2.0)
    # each function's rule at t = 0.5
    want = {"exp": math.exp(0.5), "log": 2.0, "sin": math.cos(0.5), "cos": -math.sin(0.5), "cosh": math.sinh(0.5),
            "sinh": math.cosh(0.5), "tanh": 1.0 - math.tanh(0.5) ** 2, "sqrt": 0.5 / math.sqrt(0.5), "abs": 1.0}
    assert set(want) == set(FUNCTIONS)
    for name, d in want.items():
        assert math.isclose(ScalarFn.parse(f"{name}(t)").dual(0.5)[1], d, rel_tol=1e-15), name
    assert ScalarFn.parse("abs(1-t)").dual(1.0)[1] == 0.0  # at the kink, sign(0) = 0
    # derivatives that are not finite: sqrt and log at 0, a fractional power of a negative base
    assert ScalarFn.parse("sqrt(t)").dual(0.0)[1] == math.inf
    assert ScalarFn.parse("log(t)").dual(0.0)[1] == math.inf
    assert math.isnan(ScalarFn.parse("(t-1)^0.5").dual(0.5)[1])


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


def _bits_equal(a, b):
    """The same float64 bits, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a) & np.isnan(b)
    return bool(np.all(nan | ((a.view(np.int64) == b.view(np.int64)) & ~np.isnan(a))))


@settings(max_examples=300, deadline=None)
@given(text=expressions, ts=times, seed=st.integers(0, 2**32 - 1))
def test_dual_values_are_eval_ast_bits(text, ts, seed):
    # f from the forward-mode walk is eval_ast's f, alone and inside arrays,
    # and f' too has the same bits alone and inside the array
    node = parse_expr(text)
    xs = np.concatenate([ts, np.random.default_rng(seed).uniform(-10.0, 10.0, 32)])
    v, d = eval_dual(node, xs)
    assert v.shape == d.shape == xs.shape
    assert _bits_equal(v, eval_ast(node, xs)), text
    for x, inside, slope in zip(xs.tolist(), v, d):
        alone, alone_slope = eval_dual(node, x)
        assert np.ndim(alone) == np.ndim(alone_slope) == 0
        assert _bits_equal(alone, eval_ast(node, x)) and _bits_equal(alone, inside), (text, x)
        assert _bits_equal(alone_slope, slope), (text, x)


H = 1e-4  # central difference step
# the same grammar with t as every other atom, so most draws depend on t
t_expressions = st.recursive(
    st.one_of(st.just("t"), _atoms),
    lambda sub: st.one_of(
        st.builds("{}({})".format, st.sampled_from(sorted(FUNCTIONS)), sub),
        st.builds("-({})".format, sub),
        st.builds("({}){}({})".format, sub, st.sampled_from("+-*/^"), sub),
        st.builds("({})^{}".format, sub, st.sampled_from(["2", "0.5", "(-1)", "3", "(-2)"])),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(text=t_expressions, t=st.floats(-3.0, 3.0))
@example(text="(t)^(t)", t=1.3)
@example(text="sin((t)*(7.25))/(t)", t=0.4)
@example(text="exp(-(t)*(t))*(cos((3)*(t)))^2", t=0.9)
def test_dual_derivative_matches_a_central_difference(text, t):
    # (f(t + h) - f(t - h)) / 2h is f'(t) + f'''(x) h^2 / 6 for some x within
    # h of t, plus the rounding of f, about eps |f| / h.  Bound |f'''| near t
    # by twice the largest third difference quotient of f at spacings h and
    # 2h within 4h of t, and allow f' itself 1e-9 of the sizes it sums.
    f = ScalarFn.parse(text)
    xs = t + H * np.arange(-4, 5)
    fv = f(xs)
    v, d = f.dual(t)
    if not (np.all(np.isfinite(fv)) and math.isfinite(d)) or np.max(np.abs(fv)) > 1e6:
        return  # a pole, a domain edge or an overflow within 4h: no bound to check against
    scale, eps = np.max(np.abs(fv)), np.finfo(float).eps
    fine, coarse = np.max(np.abs(np.diff(fv, 3))) / H**3, np.max(np.abs(np.diff(fv[::2], 3))) / (2 * H) ** 3
    if abs(fine - coarse) > 0.25 * max(fine, coarse) + 16 * eps * scale / H**3:
        return  # the two spacings disagree: f''' is not resolved at h (a kink of abs nearby)
    central = (fv[5] - fv[3]) / (2 * H)
    bound = 2 * max(fine, coarse) * H**2 / 6 + 8 * eps * scale / H + 1e-9 * (abs(d) + scale)
    assert abs(d - central) <= bound, (text, t, d, central, bound)
