import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import linalg
from pnmcore.errors import CPTPViolation, UndefinedIntermediateMap
from pnmcore.evolutions import _refine_min_abs, find_first_zero
from pnmcore.numerics import bisect_root


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
    parent = p.make_preset("paper-example")
    core = p.ShiftedEvolution(parent, 0.2748)
    assert core.dim == 2
    direct = parent.intermediate_map(0.2748, 1.0 + 0.2748)
    assert np.allclose(core.dynamical_map(1.0).matrix, direct.matrix)


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
    the scan was vectorized."""
    ts = np.linspace(0.0, horizon, n)
    vals = np.asarray(f(ts), dtype=float)
    for i in range(1, len(ts)):
        a, b = vals[i - 1], vals[i]
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if b == 0.0:
            return float(ts[i])
        if a > 0 > b or a < 0 < b:
            return bisect_root(lambda x: float(f(x)), float(ts[i - 1]), float(ts[i]), xtol=1e-9)
        if abs(b) < 1e-4 and i + 1 < len(ts) and abs(vals[i + 1]) >= abs(b) and abs(a) >= abs(b):
            x = _refine_min_abs(f, float(ts[i - 1]), float(ts[i + 1]))
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
