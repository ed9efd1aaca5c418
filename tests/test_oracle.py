"""The array map-eigenvalue path of the Pauli-diagonal families against the
dense superoperator path (linalg.py), on random families, CP and not; and the
closed-form RHP measure against the grid-step sum of Choi trace-norm
excesses it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import linalg
from pnmcore.errors import CPTPViolation, DomainError, PnmError, SingularMap
from pnmcore.evolutions import pauli_probs
from pnmcore.measures import _choi_trace_norm_excess, _is_eb

HORIZON, N = 3.0, 40
coef = st.floats(-0.4, 0.4).map(lambda x: round(x, 4))
positive = st.floats(0.2, 3.0).map(lambda x: round(x, 4))


@st.composite
def pauli_families(draw):
    kind = draw(st.sampled_from(["probs", "rates", "quasi"]))
    if kind == "probs":
        # p_i(0) = 0; a negative a_i or b_i makes the family non-CP
        exprs = [
            f"{draw(coef)}*(1-exp(-{draw(positive)}*t))+{draw(coef)}*sin({draw(positive)}*t)^2"
            for _ in range(3)
        ]
        e = p.PauliProbs(*map(p.ScalarFn.parse, exprs))
    elif kind == "rates":
        # a negative rate can push map eigenvalues above 1
        exprs = [f"{draw(coef)}+{draw(coef)}*cos({draw(positive)}*t)" for _ in range(3)]
        e = p.PauliRates(*map(p.ScalarFn.parse, exprs))
    else:
        alpha = draw(positive)
        e = p.QuasiEternal(
            alpha=alpha,
            t0=p.t0_alpha(alpha) + draw(st.floats(0.0, 1.0)),
            t_unitary=draw(st.sampled_from([0.0, 0.5])),
        )
    shift = draw(st.sampled_from([None, 0.3, 1.1]))
    return e if shift is None else p.ShiftedPauli(e, shift)


bloch = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(lambda r: np.linalg.norm(r) <= 1.0)


def _state(r):
    return (np.eye(2) + sum(c * linalg.PAULI[k] for c, k in zip(r, "xyz"))) / 2


def _outcome(fn):
    """(value, None) or (None, exception type)."""
    try:
        return fn(), None
    except PnmError as exc:
        return None, type(exc)


def _pauli_step_excess(e, times):
    """Choi trace-norm excess of each grid-step intermediate map; nan where undefined."""
    lam = e.map_eigenvalues(times)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = pauli_probs(lam[1:] / lam[:-1])
    return sum(np.abs(q) for q in probs) - 1.0


def _step_sum(e, horizon, n):
    """The RHP measure as the Choi trace-norm excess summed over n - 1 grid
    steps, undefined steps skipped; it converges to the closed form at first
    order in the step."""
    times = np.linspace(0.0, horizon, n)
    if isinstance(e, p.Depolarizing):
        fv = np.asarray(e.f(times), dtype=float)
        fs, ft = fv[:-1], fv[1:]
        defined = np.abs(fs) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            g = ft / fs
        k = e.dim**2 - 1
        excess = (np.abs(1 + k * g) + k * np.abs(1 - g)) / (k + 1) - 1.0
        return float(np.sum(np.clip(excess[defined], 0.0, None)))
    excess = _pauli_step_excess(e, times)
    return float(np.sum(np.clip(excess[np.isfinite(excess)], 0.0, None)))


def _dense_W(e, pair, times):
    return np.array([p.distinguishability(p.evolve_pair(e, pair, float(t))) for t in times])


@settings(max_examples=60, deadline=None)
@given(e=pauli_families(), r1=bloch, r2=bloch)
def test_flux_matches_evolved_pair(e, r1, r2):
    pair = p.StatePair(_state(r1), _state(r2))
    times = np.linspace(0.0, HORIZON, N)
    W, err = _outcome(lambda: p.flux_series(e, pair, HORIZON, N).W)
    dense, dense_err = _outcome(lambda: _dense_W(e, pair, times))
    assert err is dense_err
    if err is None:
        assert np.max(np.abs(W - dense)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(e=pauli_families())
def test_step_choi_excess_matches_dense_trace_norm(e):
    times = np.linspace(0.0, HORIZON, N)
    excess = np.clip(_pauli_step_excess(e, times), 0.0, None)
    for k, (s, t) in enumerate(zip(times[:-1], times[1:])):
        dense, err = _outcome(lambda: _choi_trace_norm_excess(e, float(s), float(t)))
        if err is None:
            assert abs(excess[k] - dense) < 1e-9
        else:
            # the dense path refuses V_{t,s} only where lambda(s) vanishes
            assert err is SingularMap


@settings(max_examples=60, deadline=None)
@given(e=pauli_families())
def test_log_map_eigenvalues_match_map_eigenvalues(e):
    times = np.linspace(0.0, HORIZON, N)
    lam, err = _outcome(lambda: np.abs(e.map_eigenvalues(times)))
    logs, log_err = _outcome(lambda: e.log_map_eigenvalues(times))
    assert err is log_err
    if err is None:
        assert np.allclose(np.exp(logs), lam, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(e=pauli_families())
def test_closed_form_eb_matches_ppt(e):
    times = np.linspace(0.0, HORIZON, N)
    eb, err = _outcome(lambda: _is_eb(e, times))
    dense, dense_err = _outcome(
        lambda: np.array([linalg.is_eb_qubit(e.dynamical_map(float(t))) for t in times])
    )
    assert err is dense_err
    if err is None:
        assert np.array_equal(eb, dense)


@settings(max_examples=30, deadline=None)
@given(f=st.floats(-1.0, 1.0))
def test_depolarizing_closed_form_eb_matches_ppt(f):
    e = p.Depolarizing(p.ScalarFn.constant(f))
    assert bool(_is_eb(e, 0.5)) == linalg.is_eb_qubit(e.dynamical_map(0.5))


def test_negative_pauli_probs_raise_cptp_violation_on_both_paths():
    e = p.PauliProbs(*(p.ScalarFn.parse(x) for x in ("0.1*t", "0.1*t", "-0.1*t")))
    pair = p.StatePair(_state([0, 0, 1]), _state([0, 0, -1]))
    with pytest.raises(CPTPViolation):
        p.flux_series(e, pair, HORIZON, N)
    with pytest.raises(CPTPViolation):
        p.evolve_pair(e, pair, 1.0)
    with pytest.raises(CPTPViolation):
        p.eb_time_qubit(e, HORIZON, N)


def test_unphysical_evolved_pair_raises_domain_error_on_both_paths():
    # a negative rate pair makes lambda_z = exp(2t) > 1
    e = p.PauliRates(*(p.ScalarFn.parse(x) for x in ("-0.5", "-0.5", "0.1")))
    pair = p.StatePair(_state([0, 0, 1]), _state([0, 0, -1]))
    with pytest.raises(DomainError):
        p.flux_series(e, pair, HORIZON, N)
    with pytest.raises(DomainError):
        p.evolve_pair(e, pair, 1.0)


def test_shifted_core_over_singular_parent_raises_singular_map_on_both_paths():
    # all four probabilities are 1/4 at t = 1: lambda(1) = 0
    e = p.PauliProbs(*(p.ScalarFn.parse("0.25*t") for _ in range(3)))
    core = p.ShiftedPauli(e, 1.0)
    with pytest.raises(SingularMap):
        core.map_eigenvalues(np.linspace(0.0, 1.0, 5))
    with pytest.raises(SingularMap):
        core.dynamical_map(0.5)
    pair = p.StatePair(_state([0, 0, 1]), _state([0, 0, -1]))
    with pytest.raises(SingularMap):
        p.flux_series(core, pair, HORIZON, N)
    with pytest.raises(SingularMap):
        p.evolve_pair(core, pair, 0.5)
    with pytest.raises(SingularMap):
        p.rhp_measure(core, HORIZON)


def test_extracted_pauli_cores_take_the_array_path():
    e = p.PauliRates(*(p.ScalarFn.parse(x) for x in ("0.5", "0.5", "0.2+0.6*cos(3*t)")))
    core = p.extract_pnm_core(e, 0.44)
    assert isinstance(core, p.ShiftedPauli)
    lam = core.map_eigenvalues(np.array([0.0, 0.7]))
    assert np.allclose(lam[0], 1.0)
    assert np.allclose(lam[1], e.map_eigenvalues(1.14) / e.map_eigenvalues(0.44))


small = st.floats(-0.1, 0.1).map(lambda x: round(x, 4))


@st.composite
def invertible_families(draw):
    """Random depolarizing (d = 2, 3) and Pauli families whose eigenvalues
    never vanish, so their RHP measure is finite."""
    kind = draw(st.sampled_from(["depolarizing", "probs", "rates", "quasi"]))
    if kind == "depolarizing":
        a, b, w = draw(positive), draw(st.floats(0.0, 0.9)), draw(positive)
        f = f"exp(-{a}*t)*(1+{b:.4f}*cos({w}*t))/(1+{b:.4f})"
        return p.Depolarizing(p.ScalarFn.parse(f), dim=draw(st.sampled_from([2, 3])))
    if kind == "probs":
        # |p_i| <= 0.2 keeps every lambda_i = 1 - 2(p_j + p_k) >= 0.2
        exprs = [
            f"{draw(small)}*(1-exp(-{draw(positive)}*t))+{draw(small)}*sin({draw(positive)}*t)^2"
            for _ in range(3)
        ]
        return p.PauliProbs(*map(p.ScalarFn.parse, exprs))
    if kind == "rates":
        exprs = [f"{draw(coef)}+{draw(coef)}*cos({draw(positive)}*t)" for _ in range(3)]
        return p.PauliRates(*map(p.ScalarFn.parse, exprs))
    alpha = draw(positive)
    return p.QuasiEternal(
        alpha=alpha,
        t0=p.t0_alpha(alpha) + draw(st.floats(0.0, 1.0)),
        t_unitary=draw(st.sampled_from([0.0, 0.5])),
    )


@settings(max_examples=40, deadline=None)
@given(e=invertible_families())
def test_closed_form_rhp_matches_richardson_step_sum(e):
    n = 40000
    richardson = 2.0 * _step_sum(e, HORIZON, 2 * n) - _step_sum(e, HORIZON, n)
    assert abs(p.rhp_measure(e, HORIZON) - richardson) < 1e-6
