import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import evolutions, exprparse, linalg
from pnmcore.cli import load_config, run_report
from pnmcore.errors import CPTPViolation, NonFiniteResult, SingularMap, UndefinedIntermediateMap
from pnmcore.evolutions import PATHOLOGICAL_RATES, find_first_zero
from tests import sequential


def test_t0_alpha_values():
    assert abs(p.t0_alpha(0.1) - 3.4657) < 1e-3
    assert p.t0_alpha(1.0) == 0.0
    assert p.t0_alpha(5.0) == 0.0  # negative log clamps to 0


def test_depolarizing_dynamical_map():
    e = p.Depolarizing(p.ScalarFn.parse("exp(-t)"))
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = linalg.apply_map(e.dynamical_map(1.0), rho)
    f = math.exp(-1.0)
    assert np.allclose(out, f * rho + (1 - f) * np.eye(2) / 2)


def test_depolarizing_intermediate_composition():
    # V_{t,s} after Lambda_s must equal Lambda_t
    e = p.make_preset("paper-example")
    s, t = 0.3, 1.1
    lhs = linalg.compose_maps(e.intermediate_map(s, t), e.dynamical_map(s))
    assert np.allclose(lhs.matrix, e.dynamical_map(t).matrix, atol=1e-10)


def test_depolarizing_intermediate_min_choi_closed_form():
    e = p.make_preset("paper-example")
    s, t = 0.495, 1.040
    expected = (1 - e.f_at(t) / e.f_at(s)) / 4
    assert np.isclose(e.intermediate_min_choi(s, t), expected)
    # matches the dense eigenvalue computation
    dense = linalg.min_choi_eigenvalue(e.intermediate_map(s, t))
    assert abs(dense - expected) < 1e-10


def test_non_bijective_depolarizing():
    e = p.make_preset("appendix-f")
    t_nb = e.non_bijective_time(5.0)
    assert abs(t_nb - 0.5) < 1e-6
    with pytest.raises(UndefinedIntermediateMap):
        e.intermediate_map(0.5, 1.0)
    # the regularized scan keeps the sign information: times are k / 4
    grid = p.scan_regions(e, 5.0, 21)
    assert grid.regularized
    assert grid.value[2, 4] < 0  # (s, t) = (0.5, 1.0)
    assert grid.value[1, 2] > 0  # (s, t) = (0.25, 0.5)


def _counting_searches(monkeypatch):
    searched = []
    search = evolutions.find_first_zero
    monkeypatch.setattr(evolutions, "find_first_zero", lambda f, h: searched.append((f, h)) or search(f, h))
    return searched


def test_run_report_searches_one_zero_per_op(monkeypatch):
    # validate_spec, scan_regions and rhp_measure all ask the parent for its
    # zero on [0, 5]; the core reads the parent's, past T
    searched = _counting_searches(monkeypatch)
    doc = run_report(load_config('{"evolution": {"preset": "paper-example"}}'))
    assert doc["classification"] == "NNM"
    assert len(searched) == 1


PAULI_ZERO = ("0.5*(1-exp(-t))", "0.5*(1-exp(-t))", "0.25*t")  # lambda_z = 2 exp(-t) - 1 hits 0 at ln 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: p.make_preset("appendix-f"),
        lambda: p.Depolarizing(p.ScalarFn.parse("cos(2*t)")),
        lambda: p.PauliProbs(*map(p.ScalarFn.parse, PAULI_ZERO)),
    ],
)
def test_non_bijective_time_does_not_depend_on_query_order(make):
    horizons = [5.0, 0.3, 2.0, 0.75, 5.0]
    fresh = [make().non_bijective_time(h) for h in horizons]
    e = make()
    assert [e.non_bijective_time(h) for h in reversed(horizons)] == fresh[::-1]
    assert [e.non_bijective_time(h) for h in horizons] == fresh
    assert fresh[0] is not None and fresh[1] is None


ROUNDED = 3.9  # (3.9 - T) + T != 3.9 for 1 T in 5 of linspace(0.1, 3.1, 1000)


def _rounded_shift(horizon=ROUNDED):
    """A shift T with (horizon - T) + T != horizon."""
    return next(T for T in np.linspace(0.1, 0.8 * horizon, 1000) if (horizon - T) + T != horizon)


@pytest.mark.parametrize(
    "make",
    [
        lambda: p.make_preset("appendix-f"),
        lambda: p.Depolarizing(p.ScalarFn.parse("exp(-0.4*t)*cos(3*t)"), dim=3),
        lambda: p.PauliProbs(*map(p.ScalarFn.parse, PAULI_ZERO)),
    ],
)
def test_core_reads_its_zero_from_a_parent_horizon_off_by_rounding(make, monkeypatch):
    e, T = make(), _rounded_shift()
    zero = e.non_bijective_time(ROUNDED)
    assert T < zero
    searched = _counting_searches(monkeypatch)
    core = p.extract_pnm_core(e, T)
    assert core.non_bijective_time(ROUNDED - T) == zero - T
    assert searched == []
    # a parent range that ends before the core's does not cover it: one search
    assert abs(core.non_bijective_time(ROUNDED) - (zero - T)) <= 1e-9
    assert len(searched) == 1


@pytest.mark.parametrize(
    "f, T",
    [
        # T > 0.9 h: the core's horizon h / 10 reaches past the parent's [0, h]
        ("exp(-0.25*t)*(1-0.3+0.3*cos(3*t))", 4.6),
        # the parent's first zero, pi / 6, is before T: the core's is its own
        ("exp(-t)*cos(3*t)", 2.2),
    ],
)
def test_core_outside_the_parent_cache_computes_its_own(f, T):
    horizon = 5.0
    e = p.Depolarizing(p.ScalarFn.parse(f), dim=3)
    e.turns(horizon)
    e.non_bijective_time(horizon)
    core = p.extract_pnm_core(e, T)
    h = max(horizon - T, horizon / 10)
    own = p.Depolarizing(core.f, dim=3)  # the core's f, with its own rates
    assert core.non_bijective_time(h) == own.non_bijective_time(h)
    if T + h > horizon:
        ts, lam = core.turns(h)
        want_ts, want_lam = own.turns(h)
        assert np.array_equal(ts, want_ts) and np.array_equal(lam, want_lam)
    else:
        assert core.non_bijective_time(h) is not None  # cos(3(t + 2.2)) has zeros in (0, 2.8]


def test_pauli_core_past_the_parents_first_zero_finds_its_own():
    # lambda_z = cos t: the parent's first zero is pi / 2, the core's past
    # T = 2 is 3 pi / 2 - T, and lambda_z rises out of it, so rhp diverges
    e = p.PauliProbs(*map(p.ScalarFn.parse, ("0", "0", "0.5*(1-cos(t))")))
    assert abs(e.non_bijective_time(5.0) - math.pi / 2) <= 1e-9
    core = p.ShiftedPauli(e, 2.0)
    assert abs(core.non_bijective_time(3.0) - (1.5 * math.pi - 2.0)) <= 1e-9
    assert p.rhp_measure(core, 3.0) == math.inf


def test_core_turning_points_are_the_parents_past_T(monkeypatch):
    _check_core_turns(p.Depolarizing(p.ScalarFn.parse("exp(-0.25*t)*(1-0.3+0.3*cos(3*t))")), monkeypatch)


@pytest.mark.parametrize(
    "e",
    [
        p.PauliRates(*map(p.ScalarFn.parse, ("0.5", "0.5", "0.2+0.6*cos(3*t)"))),
        p.PauliProbs(*map(p.ScalarFn.parse, ("0.05*(1-exp(-2*t))", "0.05*(1-exp(-2*t))", "0.15*(1-cos(1.5*t))"))),
    ],
)
def test_pauli_core_turning_points_are_the_parents_past_T(e, monkeypatch):
    _check_core_turns(e, monkeypatch)


def _check_core_turns(e, monkeypatch):
    # the core's turns are its parent's rate roots past T, shifted, with the
    # parent's eigenvalues there divided by those at T: no rates call of its own
    T = _rounded_shift()
    parent_ts, parent_lam = e.turns(ROUNDED)
    core = p.extract_pnm_core(e, T)
    at_T = e.map_eigenvalues(T)
    monkeypatch.setattr(type(e), "rates", lambda *args: pytest.fail("rates called"))
    ts, lam = core.turns(ROUNDED - T)
    past = parent_ts > T
    assert len(ts) >= 3 and np.array_equal(ts, np.append(0.0, parent_ts[past] - T))
    assert np.array_equal(lam, np.concatenate((np.ones((1, lam.shape[1])), parent_lam[past] / at_T)))
    assert np.all(core.map_eigenvalues(0.0) == 1.0)
    # a shorter core horizon keeps the parent's points up to it, then ends at it
    ts, lam = core.turns(1.0)
    assert np.array_equal(ts[1:-1], parent_ts[past & (parent_ts <= T + 1.0)] - T)
    assert ts[-1] == 1.0 and np.array_equal(lam[-1], core.map_eigenvalues(1.0))


def test_pauli_probs_eigenvalue_conversions():
    from pnmcore.evolutions import pauli_eigs_from_probs, pauli_probs_from_eigs

    probs = (0.55, 0.25, 0.15, 0.05)
    eigs = pauli_eigs_from_probs(*probs)
    back = pauli_probs_from_eigs(*eigs)
    assert np.allclose(back, probs)


def test_pauli_from_rates_matches_quasi_eternal_probs():
    alpha = 1.0
    gx = p.ScalarFn.parse(f"{alpha / 2}")
    gz = p.ScalarFn.parse(f"-{alpha / 2}*tanh(t)")
    for t in (0.1, 0.7, 2.0):
        pr = p.pauli_from_rates(gx, gx, gz, t)
        pq = p.quasi_eternal_probs(alpha, 0.0, 0.0, t)
        assert np.allclose(pr, pq, atol=1e-8)


def test_quasi_eternal_validity_threshold():
    with pytest.raises(CPTPViolation):
        p.QuasiEternal(alpha=0.1, t0=1.0)  # below t0_alpha(0.1) = 3.4657
    p.QuasiEternal(alpha=0.1, t0=3.5)  # fine


def test_quasi_eternal_intermediate_probs_sum_to_one():
    e = p.QuasiEternal(alpha=0.1, t0=4.0)
    for s, t in ((0.0, 1.0), (2.0, 5.0), (4.5, 6.0)):
        probs = e.probs(s, t)
        assert np.isclose(sum(probs), 1.0)


def test_quasi_eternal_negative_pz_after_t0():
    e = p.QuasiEternal(alpha=0.1, t0=4.0)
    assert e.intermediate_min_choi(4.5, 5.0) < 0
    assert e.intermediate_min_choi(1.0, 2.0) >= 0


def test_quasi_eternal_prob_grid_matches_scalar():
    from pnmcore.evolutions import pauli_probs

    e = p.QuasiEternal(alpha=0.1, t0=4.0)
    s, t = 2.0, 6.0
    p0, px, py, pz = pauli_probs(e.intermediate_eigenvalues(s, t))
    scalar = e.probs(s, t)
    assert np.allclose([p0, px, py, pz], scalar)


def test_unitary_prefix_behavior():
    e = p.make_preset("unitary-prefix")
    assert e.is_unitary_at(0.5)
    assert not e.is_unitary_at(1.5)
    # before the prefix ends the dynamical map is the identity
    ident = linalg.identity_superoperator(2)
    assert np.allclose(e.dynamical_map(0.7).matrix, ident.matrix)


def test_pauli_rates_unitarity_and_rate_min():
    e = p.make_preset("pathological")
    assert not e.is_unitary_at(1.0)
    assert e.rate_min(2.0) is not None


def test_shifted_evolution_delegates():
    # an extracted core's dynamical map is the parent's V_{t + T, T}
    for preset, T in (("paper-example", 0.2748), ("quasi-eternal", 1.5)):
        parent = p.make_preset(preset)
        core = p.extract_pnm_core(parent, T)
        assert core.dim == 2
        direct = parent.intermediate_map(T, 1.0 + T)
        assert np.allclose(core.dynamical_map(1.0).matrix, direct.matrix)


RATES_COS = ("0.5", "0.5", "0.2+0.6*cos(3*t)")


@pytest.mark.parametrize("rates", [PATHOLOGICAL_RATES, RATES_COS], ids=["pathological", "rates-cos"])
def test_rate_eigenvalues_do_not_depend_on_the_array(rates):
    # the Gauss-Legendre sums run in one fixed order, so lambda(t) has the same
    # bits alone, inside the whole array and inside a chunk of 37 times, and
    # V_{t,s} from one call is the quotient of the two
    ts = np.random.default_rng(7).uniform(0.0, 4.0, 2000)
    e = p.PauliRates(*map(p.ScalarFn.parse, rates))
    whole = p.PauliRates(*map(p.ScalarFn.parse, rates)).map_eigenvalues(ts)
    alone = np.array([e.map_eigenvalues(float(t)) for t in ts])
    chunks = np.concatenate([e.map_eigenvalues(ts[i : i + 37]) for i in range(0, len(ts), 37)])
    assert whole.tobytes() == alone.tobytes() == chunks.tobytes()
    s, later = ts[:100], ts[:100] + ts[100:200]
    assert e.intermediate_eigenvalues(s, later).tobytes() == (e.map_eigenvalues(later) / e.map_eigenvalues(s)).tobytes()


def test_intermediate_eigenvalues_raise_as_they_would_one_at_a_time():
    # lambda(1) = 0 and lambda(t) is not finite past t = 1.5: the one call at
    # s and t raises NonFiniteResult, yet lambda(s) and its check come first
    e = p.PauliProbs(*map(p.ScalarFn.parse, ("t/4", "t/4", "t/4+0*sqrt(1.5-t)")))
    with pytest.raises(SingularMap, match="not invertible at s=1.0"):
        e.intermediate_eigenvalues(1.0, np.array([1.2, 2.0]))
    with pytest.raises(NonFiniteResult, match="t=2.0"):
        e.intermediate_eigenvalues(0.5, np.array([1.2, 2.0]))
    assert np.all(np.isfinite(e.intermediate_eigenvalues(0.5, np.array([1.2, 1.4]))))


def test_core_with_a_singular_shift_raises_on_every_access():
    core = p.ShiftedPauli(p.PauliProbs(*(p.ScalarFn.parse("0.25*t") for _ in range(3))), 1.0)
    for _ in range(2):
        for call in (core.map_eigenvalues, core.log_map_eigenvalues, lambda t: core.intermediate_min_choi(0.0, t)):
            with pytest.raises(SingularMap, match="not invertible at s=1.0"):
                call(0.5)
    assert "_at_shift" not in vars(core)


def test_equal_expressions_are_evaluated_once_per_call(monkeypatch):
    nodes = []
    eval_ast = exprparse.eval_ast
    monkeypatch.setattr(exprparse, "eval_ast", lambda node, t: nodes.append(node) or eval_ast(node, t))
    ts = np.linspace(0.0, 3.0, 50)
    rates = p.PauliRates(*map(p.ScalarFn.parse, RATES_COS))
    probs = p.PauliProbs(*map(p.ScalarFn.parse, ("0.1*(1-exp(-t))", "0.1*(1-exp(-t))", "0.2*sin(1.2*t)^2")))
    core = p.ShiftedPauli(rates, 0.5)
    core.map_eigenvalues(ts)  # integrates the two distinct rates to 3.5, and takes lambda(0.5) once
    calls = {
        "rates.map_eigenvalues": rates.map_eigenvalues,
        "rates.log_map_eigenvalues": rates.log_map_eigenvalues,
        "rates.rates": rates.rates,
        "rates.intermediate_eigenvalues": lambda ts: rates.intermediate_eigenvalues(ts[:25], ts[25:]),
        "probs.map_eigenvalues": probs.map_eigenvalues,
        "probs.intermediate_eigenvalues": lambda ts: probs.intermediate_eigenvalues(ts[:25], ts[25:]),
        "core.map_eigenvalues": core.map_eigenvalues,
    }
    for name, call in calls.items():
        nodes.clear()
        call(ts)
        assert len(nodes) == 2, name
    # a shared integral gives the bits of one per rate (a function with no AST is never shared)
    apart = p.PauliRates(*(lambda t, g=g: g(t) for g in map(p.ScalarFn.parse, RATES_COS)))
    assert apart.map_eigenvalues(ts).tobytes() == rates.map_eigenvalues(ts).tobytes()
    assert apart.rates(ts).tobytes() == rates.rates(ts).tobytes()


def test_validate_spec_depolarizing():
    good = p.validate_spec(p.make_preset("paper-example"), 2.5)
    assert good.valid and good.f0_ok
    bad = p.validate_spec(p.Depolarizing(p.ScalarFn.parse("2*exp(-t)")), 2.0)
    assert not bad.f0_ok


def test_validate_spec_flags_non_bijective():
    rep = p.validate_spec(p.make_preset("appendix-f"), 5.0)
    assert rep.t_nb is not None
    assert abs(rep.t_nb - 0.5) < 1e-6


def test_validate_spec_flags_a_vanishing_pauli_eigenvalue():
    # lambda_x = 1 - 2(p_y + p_z) = 1 - 0.8t vanishes at t = 1.25
    e = p.PauliProbs(*(p.ScalarFn.parse(x) for x in ("0", "0.2*t", "0.2*t")))
    rep = p.validate_spec(e, 2.0)
    assert rep.valid
    assert abs(rep.t_nb - 1.25) < 1e-6
    assert rep.notes == ("non-bijective at t = 1.250000 (a map eigenvalue hits zero)",)
    assert p.validate_spec(p.make_preset("eternal"), 3.0).notes == ()


def test_presets_all_constructible():
    for name in p.PRESET_NAMES:
        e = p.make_preset(name)
        assert e.dim == 2


def test_make_preset_unknown():
    with pytest.raises(KeyError):
        p.make_preset("nope")


def _reference_first_zero(f, horizon, n=2048):
    """find_first_zero as a loop over the samples, as it was written before
    the scan was vectorized, refining one probe at a time."""
    ts = np.linspace(0.0, horizon, n)
    vals = np.asarray(f(ts), dtype=float)
    for i in range(1, len(ts)):
        a, b = vals[i - 1], vals[i]
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if b == 0.0:
            return float(ts[i])
        if a > 0 > b or a < 0 < b:
            return sequential.bisect_root(lambda x: float(f(x)), float(ts[i - 1]), float(ts[i]), xtol=1e-9)
        if abs(b) < 1e-4 and i + 1 < len(ts) and abs(vals[i + 1]) >= abs(b) and abs(a) >= abs(b):
            x = sequential.refine_min_abs(f, float(ts[i - 1]), float(ts[i + 1]))
            if abs(float(f(x))) <= 1e-10:
                return x
    return None


param = st.floats(0.05, 4.0).map(lambda x: round(x, 3))
ZERO_TEMPLATES = [
    "(t-{a})*(t-{b})",  # two sign changes, or a double root when a = b
    "(t-{a})^2",  # a tangential zero
    "(t-{a})^2+{c}*1e-9",  # a near-miss the refinement must reject
    "(t-{a})^2*(t-{b})^2",
    "sin({c}*t)^2",  # tangential zeros at k pi / c, and t = 0
    "cos({c}*t)",
    "1/(t-{a})",  # a sign change through a pole
    "sqrt({a}-t)*(t-{b})",  # nan past a
    "log(t)*(t-{a})",  # -inf at 0
    "exp(-{c}*t)",
    "0*t",
]


@settings(max_examples=200, deadline=None)
@given(
    template=st.sampled_from(ZERO_TEMPLATES),
    a=param,
    b=param,
    c=param,
    horizon=st.sampled_from([1.0, 2.5, 5.0]),
)
def test_find_first_zero_matches_sample_loop(template, a, b, c, horizon):
    f = p.ScalarFn.parse(template.format(a=a, b=b, c=c))
    assert find_first_zero(f, horizon) == _reference_first_zero(f, horizon)
