"""The array map-eigenvalue path of the Pauli-diagonal families against the
dense superoperator path (linalg.py), on random families, CP and not."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import linalg
from pnmcore.errors import CPTPViolation, DomainError, PnmError, SingularMap
from pnmcore.measures import _choi_trace_norm_excess, _is_eb, _pauli_step_excess

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


def test_extracted_pauli_cores_take_the_array_path():
    e = p.PauliRates(*(p.ScalarFn.parse(x) for x in ("0.5", "0.5", "0.2+0.6*cos(3*t)")))
    core = p.extract_pnm_core(e, 0.44)
    assert isinstance(core, p.ShiftedPauli)
    lam = core.map_eigenvalues(np.array([0.0, 0.7]))
    assert np.allclose(lam[0], 1.0)
    assert np.allclose(lam[1], e.map_eigenvalues(1.14) / e.map_eigenvalues(0.44))
