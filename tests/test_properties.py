import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import linalg
from pnmcore.measures import FluxSeries


def random_traceless_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return h - np.trace(h).real * np.eye(dim) / dim


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3, 4]))
def test_orthogonal_pair_postconditions(seed, dim):
    rng = np.random.default_rng(seed)
    delta = random_traceless_hermitian(rng, dim)
    assume(np.sum(np.abs(np.linalg.eigvalsh(delta))) > 1e-6)
    pair = p.orthogonal_pair_from_difference(delta)
    diff = pair.rho1 - pair.rho2
    assert abs(linalg.trace_norm(diff) - 2.0) < 1e-9
    assert np.max(np.abs(pair.rho1 @ pair.rho2)) < 1e-9  # orthogonal supports
    # the difference stays proportional to the input
    scale = linalg.trace_norm(diff) / np.sum(np.abs(np.linalg.eigvalsh(delta)))
    assert np.max(np.abs(diff - scale * delta)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    f1=st.floats(0.01, 1.0),
    f2=st.floats(0.01, 1.0),
    seed=st.integers(0, 10_000),
)
def test_cptp_maps_contract_trace_distance(f1, f2, seed):
    rng = np.random.default_rng(seed)
    a1, a2 = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    rho1 = a1 @ a1.conj().T
    rho1 /= np.trace(rho1).real
    rho2 = a2 @ a2.conj().T
    rho2 /= np.trace(rho2).real
    d0 = linalg.trace_norm(rho1 - rho2)
    s = linalg.depolarizing_superoperator(2, min(f1, f2) / max(f1, f2))
    d1 = linalg.trace_norm(linalg.apply_map(s, rho1) - linalg.apply_map(s, rho2))
    assert d1 <= d0 + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=60))
def test_flux_measure_hierarchy(values):
    w = np.array(values)
    times = np.linspace(0.0, 1.0, len(w))
    step = times[1] - times[0]
    series = FluxSeries(times, w, np.diff(w) / step)
    m_w, m_w_max, m_w_av = p.integrate_flux_measures(series)
    assert 0.0 <= m_w_av <= m_w_max + 1e-9
    assert m_w_max <= m_w + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    fs=st.floats(0.05, 1.0),
    fm=st.floats(0.05, 1.0),
    ft=st.floats(0.05, 1.0),
)
def test_composition_rule_on_depolarizing_ratios(fs, fm, ft):
    # the three intermediate maps of a depolarizing family compose by
    # multiplying their ratios; CPTP iff the ratio is at most 1
    c12 = fm / fs <= 1.0
    c23 = ft / fm <= 1.0
    c13 = ft / fs <= 1.0
    if c12 and c23:
        assert c13  # CPTP compose CPTP stays CPTP
    if not c13:
        assert not (c12 and c23)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.1, 3.0),
    dt0=st.floats(0.0, 2.0),
    s=st.floats(0.0, 5.0),
    dt=st.floats(1e-3, 5.0),
)
def test_quasi_eternal_probs_normalized(alpha, dt0, s, dt):
    t0 = p.t0_alpha(alpha) + dt0
    e = p.QuasiEternal(alpha=alpha, t0=t0)
    probs = e.probs(s, s + dt)
    assert abs(sum(probs) - 1.0) < 1e-9
    # dynamical maps (s = 0) are always physical
    assert min(e.probs(0.0, s + dt)) >= -1e-9


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    c=st.floats(0.1, 5.0),
    t=st.floats(0.0, 3.0),
)
def test_parser_matches_python_semantics(a, b, c, t):
    text = f"({a}) + ({b})*t - ({c})^2 / ({c})"
    expected = a + b * t - c**2 / c
    got = float(p.ScalarFn.parse(text)(t))
    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.1, 4.0), y=st.floats(0.1, 3.0))
def test_parser_power_tower(x, y):
    got = float(p.ScalarFn.parse(f"({x})^t^({y})")(1.5))
    assert math.isclose(got, x ** (1.5**y), rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(f_const=st.floats(0.05, 0.999))
def test_constant_depolarizing_eb_matches_ppt(f_const):
    s = linalg.depolarizing_superoperator(2, f_const)
    choi = linalg.choi_of(s)
    pt = linalg.partial_transpose(choi, 2)
    brute = bool(np.min(np.linalg.eigvalsh((pt + pt.conj().T) / 2)) >= -1e-12)
    assert linalg.is_eb_qubit(s) == brute


@pytest.mark.parametrize("name", ["paper-example", "eternal", "quasi-eternal"])
def test_backflow_implies_noncptp_cell(name, catalog, catalog_grids):
    from pnmcore.analysis import NONCPTP, UNDEFINED
    from pnmcore.measures import _default_pair
    from tests.conftest import GRID_N

    e, horizon, _ = catalog[name]
    grid = catalog_grids[name]
    series = p.flux_series(e, _default_pair(e.dim), horizon, GRID_N)
    for k in np.flatnonzero(series.sigma > 1e-9):
        cls = int(grid.cls[k, k + 1])
        assert cls in (NONCPTP, UNDEFINED)


@pytest.mark.parametrize("name", ["paper-example", "appendix-f"])
def test_core_revivals_dominate_parent(name, catalog):
    e, horizon, ct = catalog[name]
    assert ct.classification == "NNM"
    core = p.extract_pnm_core(e, ct.T)
    delta = p.revivals_delta(e.f, horizon)
    delta_core = p.revivals_delta(core.f, horizon - ct.T)
    assert delta_core >= delta - 1e-9


def test_core_revival_scales_inversely_with_f_at_T(catalog):
    # for a depolarizing family the core noise function is f(t + T)/f(T),
    # so every backflow quantity built from it gains a 1/f(T) factor
    e, horizon, ct = catalog["paper-example"]
    core = p.extract_pnm_core(e, ct.T)
    delta = p.revivals_delta(e.f, horizon)
    delta_core = p.revivals_delta(core.f, horizon - ct.T)
    assert abs(delta_core - delta / e.f_at(ct.T)) < 1e-6


@pytest.mark.parametrize("name", ["paper-example", "appendix-f", "quasi-eternal"])
def test_rhp_invariant_under_core_extraction(name, catalog):
    e, horizon, ct = catalog[name]
    core = p.extract_pnm_core(e, ct.T)
    parent = p.rhp_measure(e, horizon)
    child = p.rhp_measure(core, horizon - ct.T)
    if math.isinf(parent):
        assert math.isinf(child)
    else:
        assert math.isclose(parent, child, rel_tol=1e-9)
