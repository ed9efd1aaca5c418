import math

import numpy as np
import pytest

import pnmcore as p
from pnmcore.errors import QuadratureFailure
from pnmcore.exprparse import ScalarFn
from pnmcore.numerics import CumulativeIntegral, adaptive_simpson, bisect_boundary, bisect_root


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
