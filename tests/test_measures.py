import math

import numpy as np
import pytest

import pnmcore as p
from pnmcore.errors import DegeneratePair, DomainError, NonFiniteResult, ZeroDifference
from pnmcore.numerics import RATE_POINTS, ROOT_STEPS, ROUND_STEPS, rate_roots
from tests import sequential


def orthogonal_qubit_pair():
    return p.StatePair(
        np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    )


def plus_minus_pair():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return p.StatePair(plus, minus)


def test_distinguishability_trivial_cases():
    rho = np.eye(2, dtype=complex) / 2
    same = p.StatePair(rho, rho)
    assert p.distinguishability(same) == 0.0
    assert p.guessing_probability(same) == 0.5
    pair = orthogonal_qubit_pair()
    assert np.isclose(p.distinguishability(pair), 2.0)
    assert np.isclose(p.guessing_probability(pair), 1.0)


def test_depolarized_pair_distinguishability():
    # at mixing value f the trace distance of an orthogonal pair is 2f
    e = p.Depolarizing(p.ScalarFn.constant(0.334))
    evolved = p.evolve_pair(e, orthogonal_qubit_pair(), 1.0)
    assert abs(p.distinguishability(evolved) - 0.668) < 1e-9
    assert abs(p.guessing_probability(evolved) - 0.667) < 1e-9


def test_state_pair_validation():
    with pytest.raises(DomainError):
        p.StatePair(np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)


def test_orthogonal_pair_from_difference_diagonal():
    pair = p.orthogonal_pair_from_difference(np.diag([0.3, -0.3]).astype(complex))
    assert np.allclose(pair.rho1, np.diag([1.0, 0.0]))
    assert np.allclose(pair.rho2, np.diag([0.0, 1.0]))


def test_orthogonal_pair_from_sigma_x():
    pair = p.orthogonal_pair_from_difference(0.4 * np.array([[0, 1], [1, 0]], dtype=complex))
    expect = plus_minus_pair()
    assert np.allclose(pair.rho1, expect.rho1)
    assert np.allclose(pair.rho2, expect.rho2)


def test_orthogonal_pair_qutrit():
    pair = p.orthogonal_pair_from_difference(np.diag([0.5, -0.2, -0.3]).astype(complex))
    assert np.allclose(pair.rho1, np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(pair.rho2, np.diag([0.0, 0.4, 0.6]))


def test_orthogonal_pair_rejects_zero_and_bad_input():
    with pytest.raises(ZeroDifference):
        p.orthogonal_pair_from_difference(np.zeros((2, 2), dtype=complex))
    with pytest.raises(DomainError):
        p.orthogonal_pair_from_difference(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DomainError):
        p.orthogonal_pair_from_difference(np.eye(2, dtype=complex))


def test_flux_series_markovian_is_nonpositive():
    e = p.Depolarizing(p.ScalarFn.parse("exp(-t)"))
    series = p.flux_series(e, orthogonal_qubit_pair(), 3.0, 200)
    assert np.all(series.sigma <= 1e-9)
    assert len(series.sigma) == len(series.times) - 1


def test_flux_series_positive_exactly_on_revival(catalog):
    e, horizon, ct = catalog["paper-example"]
    series = p.flux_series(e, orthogonal_qubit_pair(), horizon, 500)
    step = series.times[1] - series.times[0]
    pos = series.times[:-1][series.sigma > 1e-9]
    assert pos.min() >= ct.tau - step
    assert pos.max() <= ct.t_star + step


def test_flux_series_eternal_no_ancilla_free_backflow():
    # the eternal model is non-CP-divisible everywhere yet shows no
    # ancilla-free trace-distance backflow: every map eigenvalue decays
    # because gamma_y + gamma_z = (alpha/2)(1 - tanh t) stays positive
    for pair in (plus_minus_pair(), orthogonal_qubit_pair()):
        series = p.flux_series(p.make_preset("eternal"), pair, 3.0, 300)
        assert np.all(series.sigma <= 1e-9)


def test_integrate_flux_monotone_series():
    series = p.flux_series(
        p.Depolarizing(p.ScalarFn.parse("exp(-t)")), orthogonal_qubit_pair(), 3.0, 200
    )
    assert p.integrate_flux_measures(series) == (0.0, 0.0, 0.0)


def test_integrate_flux_paper_example(catalog):
    e, horizon, _ = catalog["paper-example"]
    series = p.flux_series(e, orthogonal_qubit_pair(), horizon, 2000)
    m_w, m_w_max, m_w_av = p.integrate_flux_measures(series)
    assert abs(m_w - 0.328) < 5e-3
    # single revival interval: the largest single-interval backflow is the total
    assert abs(m_w_max - m_w) < 1e-9
    assert m_w_av <= m_w_max <= m_w + 1e-12


def test_revivals_delta():
    assert p.revivals_delta(p.ScalarFn.parse("exp(-t)"), 3.0) == 0.0
    e = p.make_preset("paper-example")
    assert abs(p.revivals_delta(e.f, 2.5) - 0.164) < 2e-3
    e = p.make_preset("appendix-f")
    assert abs(p.revivals_delta(e.f, 5.0) - 0.64) < 2e-3


def test_depolarizing_measures_closed_forms():
    m_d, m_d_core, m_mix, m_mix_core = p.depolarizing_measures(0.164, 0.334)
    assert abs(m_d - 0.328) < 1e-12
    assert abs(m_d_core - 0.328 / 0.334) < 1e-12
    assert abs(m_mix - 0.164 / 1.164) < 1e-12
    assert abs(m_mix_core - 0.164 / 0.498) < 1e-12
    # zero revival: all measures vanish
    assert p.depolarizing_measures(0.0, 0.5) == (0.0, 0.0, 0.0, 0.0)
    m = p.depolarizing_measures(0.64, 0.64)
    assert abs(m[2] - 0.64 / 1.64) < 1e-12
    assert abs(m[3] - 0.5) < 1e-12


def test_depolarizing_measures_domain():
    with pytest.raises(DomainError):
        p.depolarizing_measures(0.1, 0.0)
    with pytest.raises(DomainError):
        p.depolarizing_measures(-0.1, 0.5)


def test_amplification_factor(catalog):
    pair = orthogonal_qubit_pair()
    e, _, ct = catalog["paper-example"]
    assert np.isclose(p.amplification_factor(e, pair, 0.0), 1.0)
    assert abs(p.amplification_factor(e, pair, ct.T) - 1.0 / e.f_at(ct.T)) < 1e-9


def test_amplification_degenerate():
    e = p.Depolarizing(p.ScalarFn.constant(0.0))
    with pytest.raises(DegeneratePair):
        p.amplification_factor(e, orthogonal_qubit_pair(), 1.0)


def test_amplification_non_finite():
    # f is NaN below t = 1: a NaN distance is an error, not a gain
    e = p.Depolarizing(p.ScalarFn.parse("exp(-t)+0*log(t-1)"))
    with pytest.raises(NonFiniteResult):
        p.amplification_factor(e, orthogonal_qubit_pair(), 0.5)
    assert np.isclose(p.amplification_factor(e, orthogonal_qubit_pair(), 2.0), math.exp(2.0))


def test_rhp_markovian_zero():
    assert p.rhp_measure(p.Depolarizing(p.ScalarFn.parse("exp(-t)")), 3.0) == 0.0


def test_rhp_eternal_positive():
    assert p.rhp_measure(p.make_preset("eternal"), 3.0) > 0.1


@pytest.mark.parametrize(
    "e, horizon, shift",
    [
        (p.make_preset("eternal"), 3.0, 0.0),
        (p.make_preset("quasi-eternal", alpha=0.1, t0=4.0), 40.0, 4.0),
        (p.make_preset("unitary-prefix"), 5.0, 1.0),
        (p.QuasiEternal(alpha=1.0, t0=0.8, t_unitary=0.5), 4.3, 1.3),
    ],
)
def test_rhp_quasi_eternal_closed_form(e, horizon, shift):
    # gamma_z = -(alpha/2) tanh(t - t_unitary - t0) is negative past t_unitary + t0
    want = e.alpha * math.log(math.cosh(horizon - shift))
    assert math.isclose(p.rhp_measure(e, horizon), want, rel_tol=1e-9)


@pytest.mark.parametrize(
    "e, horizon, want, rel",
    [
        # the core starts 3e-5 before gamma_z turns negative: c_z peaks inside the first step
        (
            p.ShiftedPauli(p.QuasiEternal(alpha=1.0, t0=0.8, t_unitary=0.5), 1.3 - 3e-5),
            3.0,
            math.log(math.cosh(3.0 - 3e-5)),
            1e-12,
        ),
        # gamma_z turns negative 1e-5 before the horizon, inside the last step
        (p.QuasiEternal(alpha=1.0, t0=0.8), 0.8 + 1e-5, math.log(math.cosh(1e-5)), 1e-4),
    ],
)
def test_rhp_turning_point_inside_an_end_step(e, horizon, want, rel):
    assert math.isclose(p.rhp_measure(e, horizon), want, rel_tol=rel)


def test_rhp_cos_rate_closed_form():
    # gamma_z = 0.2 + 0.6 cos 3t is negative between the roots of cos 3t = -1/3
    e = p.PauliRates(*(p.ScalarFn.parse(g) for g in ("0.5", "0.5", "0.2+0.6*cos(3*t)")))
    h, w = 3.5, math.acos(-1.0 / 3.0)
    roots = [r for k in range(3) for r in ((2 * k * math.pi + w) / 3, (2 * (k + 1) * math.pi - w) / 3)]
    prim = lambda t: 0.2 * t + 0.2 * math.sin(3 * t)
    want = -2.0 * sum(prim(min(b, h)) - prim(a) for a, b in zip(roots[::2], roots[1::2]) if a < h)
    assert math.isclose(want, 0.8475024483867515, rel_tol=1e-12)
    assert math.isclose(p.rhp_measure(e, h), want, rel_tol=1e-9)


@pytest.mark.parametrize(
    "e",
    [
        p.make_preset("appendix-f"),  # f touches 0 at t = 0.5 and rises again
        p.Depolarizing(p.ScalarFn.parse("exp(-0.4*t)*cos(3*t)")),
        p.Depolarizing(p.ScalarFn.parse("exp(-0.4*t)*cos(3*t)"), dim=3),
        # lambda_x = 1 - 2(p_y + p_z) = 1 - 0.8 t passes through 0 at t = 1.25
        p.PauliProbs(*(p.ScalarFn.parse(x) for x in ("0", "0.2*t", "0.2*t"))),
        p.ShiftedPauli(p.PauliProbs(*(p.ScalarFn.parse(x) for x in ("0", "0.2*t", "0.2*t"))), 0.5),
    ],
)
def test_rhp_diverges_when_an_eigenvalue_rises_out_of_zero(e):
    assert p.rhp_measure(e, 3.0) == math.inf


def test_rhp_parent_core_equal(catalog):
    e, horizon, ct = catalog["paper-example"]
    core = p.extract_pnm_core(e, ct.T)
    r1 = p.rhp_measure(e, horizon)
    r2 = p.rhp_measure(core, horizon - ct.T)
    assert math.isclose(r1, r2, rel_tol=1e-9)


@pytest.mark.parametrize(
    "rates, calls",
    [
        # gamma_z changes sign 4 times: two rounds of ROUND_STEPS = 6 steps
        (("0.5", "0.5", "0.2+0.6*cos(3*t)"), [None, 2, 2]),
        # gamma_x and gamma_z do
        (("cos(2*t)", "0.5", "sin(3*t)"), [None, 0, 0, 2, 2]),
        # gamma_z changes sign 85 times, at 1/(k pi) and aliased beyond: 6
        # steps would take 63 x 85 probes, over ROUND_PROBES, 3 take 7 x 85
        (("1", "1", "-sin(1/t)*tanh(t)"), [None, 2, 2, 2, 2]),
    ],
)
def test_rate_roots_take_a_rates_call_per_round(rates, calls):
    # rhp_measure calls rates once on its grid, then once per round of
    # bisection steps of a column that changes sign there, where it called
    # it once per step, and the roots are the step-by-step ones
    e = p.PauliRates(*(p.ScalarFn.parse(g) for g in rates))
    seen, rate = [], e.rates
    e.rates = lambda ts, i=None: seen.append(i) or rate(ts, i)
    p.rhp_measure(e, 3.5)
    assert seen == calls and ROOT_STEPS == 12 and ROUND_STEPS == 6
    ts = np.linspace(0.0, 3.5, RATE_POINTS)
    g = rate(ts)
    assert np.array_equal(rate_roots(rate, ts, g), sequential.rate_roots(e, ts, g))


def test_eb_time_depolarizing_exponential():
    e = p.Depolarizing(p.ScalarFn.parse("exp(-t)"))
    t_eb = p.eb_time_qubit(e, 3.0, 400)
    assert abs(t_eb - math.log(3.0)) < 5e-3
    assert abs(e.f_at(t_eb) - 1.0 / 3.0) < 1e-4


def test_eb_time_identity_none():
    e = p.Depolarizing(p.ScalarFn.constant(1.0))
    assert p.eb_time_qubit(e, 2.0, 100) is None


def test_measure_report_paper_example(catalog):
    e, horizon, ct = catalog["paper-example"]
    rep = p.measure_report(e, horizon, ct.T)
    assert rep.exact
    assert abs(rep.M_D - 0.328) < 0.01
    assert abs(rep.M_D_core - 0.983) < 0.01
    assert abs(rep.M_mix - 0.141) < 0.005
    assert abs(rep.M_mix_core - 0.329) < 0.005
    assert abs(rep.amplification - 2.990) < 0.05
    assert rep.M_W_av <= rep.M_W_max


def test_measure_report_generic_is_lower_bound(catalog):
    e, horizon, ct = catalog["quasi-eternal"]
    rep = p.measure_report(e, horizon, ct.T)
    assert not rep.exact
    assert rep.M_mix is None
    assert rep.M_D >= 0
