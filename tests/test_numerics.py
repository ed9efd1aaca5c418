import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore.errors import NonFiniteResult, QuadratureFailure
from pnmcore.exprparse import ScalarFn
from pnmcore.numerics import CumulativeIntegral, adaptive_simpson, bisect_boundary, bisect_root, ternary_search
from tests import sequential


def test_simpson_polynomial_exact():
    # Simpson is exact for cubics
    assert abs(adaptive_simpson(lambda x: x**3, 0.0, 2.0) - 4.0) < 1e-12


def test_simpson_exponential():
    val = adaptive_simpson(math.exp, 0.0, 1.0)
    assert abs(val - (math.e - 1.0)) < 1e-9


def test_simpson_oscillatory_bounded():
    # bounded oscillation with a removable endpoint singularity
    f = lambda x: math.sin(1.0 / x) * math.tanh(x) if x > 0 else 0.0
    val = adaptive_simpson(f, 0.0, 1.0)
    assert math.isfinite(val)
    assert abs(val) < 1.0


def test_simpson_rejects_nonfinite():
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(lambda x: 1.0 / x if x > 0 else math.inf, 0.0, 1.0)


def test_bisect_root():
    r = bisect_root(lambda x: x**2 - 2.0, 0.0, 2.0, xtol=1e-10)
    assert abs(r - math.sqrt(2.0)) < 1e-9


def test_bisect_boundary():
    # predicate true below 1.3, false above
    b = bisect_boundary(lambda x: x < 1.3, 0.0, 2.0, xtol=1e-6)
    assert abs(b - 1.3) < 1e-5


# integral of -sin(1/s) tanh(s) from 0 to t, from an independent quadrature
# (QUADPACK's QAWF in u = 1/s)
SIN_RATE_INTEGRAL = {
    0.01: -8.46099e-7,
    0.05: -6.585897e-5,
    0.2: 1.2151136e-3,
    1.0: -0.3194266675,
    3.0: -1.264696330,
}


def test_cumulative_integral_of_oscillating_rate_matches_reference():
    integral = CumulativeIntegral(ScalarFn.parse("-sin(1/t)*tanh(t)"))
    for t, want in SIN_RATE_INTEGRAL.items():
        assert abs(float(integral(t)) - want) < 1e-8, t


def test_cumulative_integral_of_cos_rate_is_exact():
    integral = CumulativeIntegral(ScalarFn.parse("0.2+0.6*cos(3*t)"))
    ts = np.linspace(0.0, 5.0, 1001)
    assert np.max(np.abs(integral(ts) - (0.2 * ts + 0.2 * np.sin(3.0 * ts)))) < 1e-12
    assert integral(0.0) == 0.0


def test_cumulative_integral_is_history_free():
    fresh = p.make_preset("pathological").map_eigenvalues(1.0)
    e = p.make_preset("pathological")
    e.map_eigenvalues(np.linspace(0.0, 3.0, 4000))
    e.map_eigenvalues(np.linspace(2.9, 0.001, 77))
    assert np.array_equal(e.map_eigenvalues(1.0), fresh)
    sweep = e.map_eigenvalues(np.array([0.25, 1.0, 2.5]))
    assert np.array_equal(sweep[1], fresh)


def test_cumulative_integral_rejects_negative_times():
    with pytest.raises(ValueError):
        CumulativeIntegral(ScalarFn.constant(1.0))(-0.1)


# --- array rounds against the one-probe-at-a-time loops in tests/sequential.py


def _outcome(search):
    """(value, None) or (None, (exception type, message))."""
    try:
        return search(), None
    except NonFiniteResult as exc:
        return None, (type(exc), str(exc))


def _poisoned(fn, u, v, how):
    """fn on arrays of points, raising or nan on [u, v]: at probes a search
    visits, or only at probes of a round it never visits."""

    def g(xs):
        xs = np.asarray(xs, dtype=float)
        bad = (u <= xs) & (xs <= v)
        if how == "raise" and bad.any():
            raise NonFiniteResult(f"poisoned at t={xs[bad][0]}")
        return np.where(bad, np.nan, fn(xs)) if how == "nan" else fn(xs)

    return g


def _scalar(fn):
    return lambda x: fn(np.array([x]))[0]


@st.composite
def brackets(draw):
    """[lo, hi], a point c in it, and a poisoned stretch [u, v]: dyadic
    brackets too, whose midpoints are exact, so that c can be one of them."""
    if draw(st.booleans()):
        lo = draw(st.integers(-64, 64)) / 64.0
        hi = lo + draw(st.integers(1, 128)) / 64.0
        c = lo + (hi - lo) * draw(st.integers(0, 64)) / 64.0
    else:
        lo = draw(st.floats(-10.0, 10.0))
        hi = lo + draw(st.floats(1e-6, 10.0))
        c = draw(st.floats(lo, hi))
    u = draw(st.floats(lo, hi))
    v = u + (hi - lo) * draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0]))
    return lo, hi, c, u, v, draw(st.sampled_from(["raise", "nan", "none"]))


xtols = st.sampled_from([1e-12, 1e-9, 1e-7, 1e-4, 0.3]) | st.floats(1e-10, 1.0)


@settings(max_examples=300, deadline=None)
@given(case=brackets(), xtol=xtols)
def test_bisect_boundary_replays_the_one_probe_loop(case, xtol):
    lo, hi, c, u, v, how = case
    pred = _poisoned(lambda xs: xs <= c, u, v, "raise" if how == "none" else how)
    assert _outcome(lambda: bisect_boundary(pred, lo, hi, xtol)) == _outcome(
        lambda: sequential.bisect_boundary(_scalar(pred), lo, hi, xtol)
    )


@settings(max_examples=300, deadline=None)
@given(case=brackets(), xtol=xtols, slope=st.sampled_from([1.0, -1.0, 3.0]))
def test_bisect_root_replays_the_one_probe_loop(case, xtol, slope):
    lo, hi, c, u, v, how = case
    f = _poisoned(lambda xs: slope * (xs - c), u, v, how)  # 0.0 exactly at c, which may be a probe
    assert _outcome(lambda: bisect_root(f, lo, hi, xtol)) == _outcome(
        lambda: sequential.bisect_root(_scalar(f), lo, hi, xtol)
    )


@settings(max_examples=300, deadline=None)
@given(
    case=brackets(),
    steps=st.integers(0, 100),
    xtol=st.just(0.0) | xtols,
    levels=st.sampled_from([0.0, 1e3, 1e9]),
    peak=st.booleans(),
)
def test_ternary_search_replays_the_one_probe_loop(case, steps, xtol, levels, peak):
    """A parabola, quantized to `levels` steps (0: not) so that probes tie,
    searched by the peak rule and by the smallest-|f| rule."""
    lo, hi, c, u, v, how = case
    parabola = lambda xs: (xs - c) * (xs - c) - 0.25 * (hi - lo) ** 2
    fn = _poisoned(lambda xs: np.floor(parabola(xs) * levels) if levels else parabola(xs), u, v, how)
    keep_left = (lambda fa, fb: not fa < fb) if peak else (lambda fa, fb: abs(fa) < abs(fb))
    assert _outcome(lambda: ternary_search(fn, lo, hi, keep_left, steps, xtol)) == _outcome(
        lambda: sequential.ternary_search(_scalar(fn), lo, hi, keep_left, steps, xtol)
    )


def test_ternary_searches_are_the_refinements_they_replaced():
    e = p.make_preset("appendix-f")  # f touches 0 at t = 1/2 and peaks at t = 3/2
    min_abs = ternary_search(e.f, 0.49, 0.51, lambda fa, fb: abs(fa) < abs(fb), 80)
    assert min_abs == sequential.refine_min_abs(e.f, 0.49, 0.51)
