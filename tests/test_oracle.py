"""The array map-eigenvalue path of the Pauli-diagonal families, and the
closed-form trace distance of the depolarizing ones, against the dense
superoperator path (linalg.py), on random families, CP and not; the
depolarizing maps built from the one eigenvalue f(t) against the
hand-written ones they replaced; the closed-form RHP measure against the
grid-step sum of Choi trace-norm excesses it replaced; the triangular,
row-blocked region scan against the full-square scan it replaced; tau
and T from whole-grid evaluations against the one-time-at-a-time loops they
replaced; and the composition count, minimum and band rows folded over the
deferred grid's row blocks, or over a depolarizing scan's sorted samples,
against the full-grid matmul and argmin they replaced; and the total
increase and revival peak read from a depolarizing family's turns (the
sign changes of its rates) against a dense grid, and those of a
depolarizing core, read with its first zero from its parent's, against a
core that finds its own."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import linalg
from pnmcore import analysis, exprparse, measures
from pnmcore.analysis import CPTP, NONCPTP, REFINE_XTOL, SCAN_BLOCK, SCAN_TOL, UNDEFINED, _depolarizing_T
from pnmcore.errors import (
    CPTPViolation,
    DegeneratePair,
    DimensionMismatch,
    DomainError,
    NonFiniteResult,
    PnmError,
    SingularMap,
    UndefinedIntermediateMap,
)
from pnmcore.evolutions import F_ZERO_TOL, PAPER_EXAMPLE_F, pauli_min_prob, pauli_probs
from pnmcore.cli import load_config, run_report
from pnmcore.measures import _is_eb
from pnmcore.numerics import DETECT_POINTS, ROOT_STEPS
from tests.sequential import bisect_boundary

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


def _choi_trace_norm_excess(e, s, t):
    """||J(V_{t,s})||_1 - 1 of the dense intermediate map, clipped at 0."""
    choi = linalg.choi_of(e.intermediate_map(s, t))
    return max(0.0, linalg.trace_norm(choi) - 1.0)


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
    for _ in range(2):  # lambda(shift) is checked once per core, yet raises on every call
        with pytest.raises(SingularMap, match="not invertible at s=1.0"):
            core.log_map_eigenvalues(0.5)


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


SQRT_NAN = p.Depolarizing(p.ScalarFn.parse("sqrt(1-0.6*t)"))  # f is NaN past t = 5/3: Undefined cells


def _reference_scan(e, horizon, n, tol=SCAN_TOL):
    """(value, cls, regularized) of the full-square scan: every (s, t) cell
    computed at once, the upper triangle gathered by index arrays; for a
    depolarizing family, the whole-array scan of f(t) the row blocks of map
    eigenvalues replaced."""
    times = np.linspace(0.0, horizon, n)
    value = np.full((n, n), np.nan)
    cls = np.full((n, n), CPTP, dtype=np.int8)
    upper = np.triu_indices(n)
    regularized = False

    if isinstance(e, p.Depolarizing):
        fv = np.asarray(e.f(times), dtype=float)
        t_nb = e.non_bijective_time(horizon)
        fs = fv[:, None]
        ft = fv[None, :]
        if t_nb is not None:
            regularized = True
            val = (fs - ft) / e.dim**2
            undefined = np.broadcast_to(np.abs(fs) <= 1e-9, val.shape)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                val = (1.0 - ft / fs) / e.dim**2
            undefined = ~np.isfinite(val)  # a NaN sample of f, as in the Pauli branch
    else:
        eig = e.map_eigenvalues(times)  # (n, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            # eig[None, j] / eig[i, None] = lambda(t_j) / lambda(t_i)
            val = pauli_min_prob(eig[None, :, :] / eig[:, None, :])
        undefined = ~np.isfinite(val)

    value[upper] = np.asarray(val, dtype=float)[upper]
    np.fill_diagonal(value, 0.0)
    cls[value < -tol] = NONCPTP
    und = np.zeros((n, n), dtype=bool)
    und[upper] = undefined[upper]
    cls[und & ~(value < -tol)] = UNDEFINED
    lower = np.tril_indices(n, -1)
    value[lower] = np.nan
    return value, cls, regularized


@st.composite
def depolarizing_families(draw):
    """Random depolarizing families at d = 2, 3: monotone, revival and narrow
    bump shapes stay positive, so the scan is bijective (unless f underflows
    to 0 at horizon 400); exp(-a t) cos(w t) changes sign, and the scan is
    regularized."""
    a, w = draw(positive), draw(positive)
    kind = draw(st.sampled_from(["monotone", "revival", "bump", "cos"]))
    if kind == "monotone":
        f = f"0.5*exp(-{a}*t)+0.5*exp(-{w}*t)"
    elif kind == "revival":
        b = draw(st.floats(0.0, 0.9))
        f = f"exp(-{a}*t)*(1+{b:.4f}*cos({w}*t))/(1+{b:.4f})"
    elif kind == "bump":
        amp, width = draw(st.floats(0.01, 0.05)), draw(st.floats(0.0015, 0.008))
        f = f"exp(-{a}*t)+{amp:.4f}*exp(-((t-{w})/{width:.4f})^2)"
    else:
        f = f"exp(-{a}*t)*cos({w}*t)"
    return p.Depolarizing(p.ScalarFn.parse(f), dim=draw(st.sampled_from([2, 3])))


def _orthogonal_pair(dim, i, j):
    """|i><i| and |j><j|, i != j: an orthogonal pair in dimension dim."""
    rho1, rho2 = np.zeros((2, dim, dim), dtype=complex)
    rho1[i, i] = rho2[j, j] = 1.0
    return p.StatePair(rho1, rho2)


def _dense_distance(e, pair, t):
    """||Lambda_t(rho1) - Lambda_t(rho2)||_1 from the dense map, the images
    not required to be states: for f < -1/(d - 1) they are not."""
    m = e.dynamical_map(float(t))
    return linalg.trace_norm(linalg.apply_map(m, pair.rho1) - linalg.apply_map(m, pair.rho2))


@settings(max_examples=40, deadline=None)
@given(e=depolarizing_families(), data=st.data())
def test_depolarizing_flux_and_amplification_match_evolved_pair(e, data):
    i, j = data.draw(st.lists(st.integers(0, e.dim - 1), min_size=2, max_size=2, unique=True))
    pair = _orthogonal_pair(e.dim, i, j)
    times = np.linspace(0.0, HORIZON, N)
    W = p.flux_series(e, pair, HORIZON, N).W
    dense = np.array([_dense_distance(e, pair, t) for t in times])
    # eigvalsh of the dense difference carries an absolute rounding error of
    # a few ulps of its unit-scale entries, which near a zero of f is more
    # than 1e-12 of W
    assert np.allclose(W, dense, rtol=1e-12, atol=1e-15)
    T = data.draw(st.sampled_from(times[1:]))
    amp, err = _outcome(lambda: p.amplification_factor(e, pair, T))
    d = _dense_distance(e, pair, T)
    if err is DegeneratePair:
        assert d < 1e-12 + 1e-15
    else:
        assert math.isclose(2.0 / amp, d, rel_tol=1e-12, abs_tol=1e-15)


def test_pair_of_another_dimension_raises_dimension_mismatch():
    qubit_pair = _orthogonal_pair(2, 0, 1)
    for e in (p.Depolarizing(p.ScalarFn.parse("exp(-t)"), dim=3), p.make_preset("eternal")):
        pair = qubit_pair if e.dim == 3 else _orthogonal_pair(3, 0, 1)
        with pytest.raises(DimensionMismatch):
            p.flux_series(e, pair, HORIZON, N)
        with pytest.raises(DimensionMismatch):
            p.amplification_factor(e, pair, 1.0)


# grid sizes on and around the block edges, and past two blocks
block_edge_n = st.sampled_from([16, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1]) | st.integers(
    2 * SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 1
)


def _same_scan(e, horizon, n):
    with np.errstate(over="ignore"):  # the full square overflows below the diagonal
        ref, ref_err = _outcome_msg(lambda: _reference_scan(e, horizon, n))
    grid, err = _outcome_msg(lambda: p.scan_regions(e, horizon, n))
    assert err == ref_err
    if err is None:
        value, cls, regularized = ref
        assert grid.value.tobytes() == value.tobytes()
        assert np.array_equal(grid.cls, cls)
        assert grid.regularized == regularized


@settings(max_examples=60, deadline=None)
@given(
    e=depolarizing_families() | pauli_families(),
    horizon=st.sampled_from([HORIZON, 400.0]),  # 400: Pauli eigenvalues underflow
    n=block_edge_n,
)
@example(e=SQRT_NAN, horizon=2.0, n=64)
def test_blocked_scan_matches_full_square_scan(e, horizon, n):
    _same_scan(e, horizon, n)


def _hand_written_depolarizing_maps(e):
    """Depolarizing's dynamical_map, intermediate_map and intermediate_min_choi
    as they were written before the diagonal base built them from f(t)."""

    def dynamical_map(t):
        return linalg.depolarizing_superoperator(e.dim, e.f_at(t))

    def intermediate_map(s, t):
        if not 0 <= s <= t:
            raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
        fs = e.f_at(s)
        if abs(fs) <= F_ZERO_TOL:
            raise UndefinedIntermediateMap(f"f({s}) = 0: the dynamical map is non-invertible at s={s}")
        return linalg.depolarizing_superoperator(e.dim, e.f_at(t) / fs)

    def intermediate_min_choi(s, t):
        fs = e.f_at(s)
        if abs(fs) <= F_ZERO_TOL:
            raise UndefinedIntermediateMap(f"f({s}) = 0 at s={s}")
        return (1.0 - e.f_at(t) / fs) / e.dim**2

    return dynamical_map, intermediate_map, intermediate_min_choi


def _bytes(x):
    return x.matrix.tobytes() if isinstance(x, linalg.Superoperator) else np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(e=depolarizing_families(), times=st.lists(st.floats(0.0, HORIZON), min_size=2, max_size=2).map(sorted))
# exp(-0.5 t) cos(2 t) vanishes at pi / 4: V_{t,s} is undefined there
@example(e=p.Depolarizing(p.ScalarFn.parse("exp(-0.5*t)*cos(2*t)")), times=[math.pi / 4, 1.5])
def test_depolarizing_maps_match_the_hand_written_ones(e, times):
    s, t = times
    old_dynamical, old_intermediate, old_min_choi = _hand_written_depolarizing_maps(e)
    for x in (s, t):
        assert _bytes(e.dynamical_map(x)) == _bytes(old_dynamical(x))
    undefined = _outcome_msg(lambda: old_intermediate(s, t))[1]
    for new, old in ((e.intermediate_map, old_intermediate), (e.intermediate_min_choi, old_min_choi)):
        got, err = _outcome_msg(lambda: _bytes(new(s, t)))
        want, want_err = _outcome_msg(lambda: _bytes(old(s, t)))
        assert got == want
        assert (err is None) == (want_err is None)
        if err is not None:
            assert err[0] is want_err[0]
            assert err == undefined  # at f(s) = 0 both raise intermediate_map's message


def _old_non_cptp(e, t):
    """The scalar infinitesimal test the array one replaced, at one time: a
    negative canonical rate."""
    return float(e.rate_min(t)) < 0.0


def _reference_tau(e, horizon, n):
    """tau from the grid times taken one at a time, as before the array test."""
    ts = np.linspace(0.0, horizon, n)
    prev = 0.0
    for t in ts:
        if _old_non_cptp(e, float(t)):
            if t == 0.0:
                return 0.0
            return bisect_boundary(lambda x: not _old_non_cptp(e, x), prev, float(t), REFINE_XTOL)
        prev = float(t)
    return math.inf


def _old_condition_b(e, T, t_grid, tol):
    return not np.any(e.intermediate_min_choi(T, t_grid[t_grid >= T]) < -tol)


def _reference_T(e, horizon, tau, n, tol=1e-9):
    """T with condition (B) tested one coarse candidate at a time, as before
    the ratio blocks."""
    if not math.isfinite(tau):
        return math.inf
    if isinstance(e, p.Depolarizing):
        return _depolarizing_T(e, horizon, tau)
    t_grid = np.linspace(0.0, horizon, n)
    cap = min(tau, horizon)
    b = lambda T: _old_condition_b(e, T, t_grid, tol)
    if not b(0.0):
        return 0.0
    if b(cap):
        t_ab = cap
    else:
        coarse = np.linspace(0.0, cap, 65)
        hi = next(float(c) for c in coarse[1:] if not b(float(c)))
        t_ab = bisect_boundary(b, hi - cap / 64.0, hi, REFINE_XTOL)
    if t_ab > 0 and e.is_unitary_at(max(t_ab - REFINE_XTOL, 0.0)):
        for T in np.linspace(t_ab, 0.0, 65):
            if T >= t_ab - REFINE_XTOL:
                continue
            if T > 0 and not e.is_unitary_at(float(T)):
                return bisect_boundary(lambda x: not e.is_unitary_at(x), float(T), t_ab, REFINE_XTOL)
        return 0.0
    return t_ab


def _outcome_msg(fn):
    """(value, None) or (None, (exception type, message))."""
    try:
        return fn(), None
    except PnmError as exc:
        return None, (type(exc), str(exc))


def _same_times(e, horizon, n):
    """tau and T equal (==) to the one-at-a-time loops', or the same error;
    tau, None if it raised."""
    tau, err = _outcome_msg(lambda: p.compute_tau_lambda(e, horizon, n))
    assert (tau, err) == _outcome_msg(lambda: _reference_tau(e, horizon, n))
    if err is None:
        T = _outcome_msg(lambda: p.compute_T_lambda(e, horizon, tau, n))
        assert T == _outcome_msg(lambda: _reference_T(e, horizon, tau, n))
    return tau


@st.composite
def timed_families(draw):
    """Random families of every built-in kind, CP-divisible or not."""
    kind = draw(st.sampled_from(["monotone", "revival", "bump", "cos", "sin", "probs", "quasi"]))
    a, w = draw(positive), draw(positive)
    if kind in ("monotone", "revival", "bump"):
        f = {
            "monotone": f"0.5*exp(-{a}*t)+0.5*exp(-{w}*t)",
            "revival": f"exp(-{a}*t)*(1+{draw(st.floats(0.0, 0.9)):.4f}*cos({w}*t))",
            "bump": f"exp(-{a}*t)+{draw(small) + 0.11:.4f}*exp(-((t-{w})/{draw(st.floats(0.0015, 0.008)):.4f})^2)",
        }[kind]
        return p.Depolarizing(p.ScalarFn.parse(f), dim=draw(st.sampled_from([2, 3])))
    if kind in ("cos", "sin"):
        gz = f"{draw(coef)}+{draw(coef)}*cos({w}*t)" if kind == "cos" else f"-{a}*sin(1/t)*tanh(t)"
        e = p.PauliRates(p.ScalarFn.parse(f"{w}"), p.ScalarFn.parse(f"{w}"), p.ScalarFn.parse(gz))
    elif kind == "probs":
        e = p.PauliProbs(
            *(
                p.ScalarFn.parse(f"{draw(coef)}*(1-exp(-{draw(positive)}*t))+{draw(coef)}*sin({draw(positive)}*t)^2")
                for _ in range(3)
            )
        )
    else:
        e = p.QuasiEternal(
            alpha=a, t0=p.t0_alpha(a) + draw(st.floats(0.0, 1.0)), t_unitary=draw(st.sampled_from([0.0, 0.5]))
        )
    shift = draw(st.sampled_from([None, None, 0.3, 1.1]))
    return e if shift is None else p.ShiftedPauli(e, shift)


@settings(max_examples=80, deadline=None)
@given(e=timed_families(), n=st.sampled_from([16, 64, 101, 400]))
def test_array_tau_and_T_equal_the_one_at_a_time_loops(e, n):
    _same_times(e, HORIZON, n)


# lambda_z = 1 - 0.4 t vanishes at t = 2.5, a grid time at n = 397; p_z falls
# back from its peak at t = pi / 3 first
ZERO_AFTER_TAU = ("0.1*t", "0.1*t", "0.2*sin(1.5*t)^2")


def test_singular_point_after_tau_is_not_raised():
    e = p.PauliProbs(*map(p.ScalarFn.parse, ZERO_AFTER_TAU))
    ts = np.linspace(0.0, HORIZON, 397)
    with pytest.raises(SingularMap):
        e.intermediate_min_choi(ts, ts + 1e-3)  # the whole grid at once raises
    tau = _same_times(e, HORIZON, 397)
    assert 1.0 < tau < 1.1
    # a core over the zero raises it, before and after
    with pytest.raises(SingularMap):
        _reference_tau(p.ShiftedPauli(e, ts[330]), HORIZON, 64)
    _same_times(p.ShiftedPauli(e, ts[330]), HORIZON, 64)


@pytest.mark.parametrize(
    "f, raises",
    [
        # f' is NaN on (0.35, 0.45), before f first rises near t = 1.15
        ("exp(-t)*(1+0.3*cos(4*t))+0*log(abs(t-0.4)-0.05)", True),
        # ... and on (2, 3], after it: not raised
        ("exp(-t)*(1+0.3*cos(4*t))+0*log(2-t)", False),
    ],
)
def test_non_finite_derivative_raises_only_before_the_first_flag(f, raises):
    e = p.Depolarizing(p.ScalarFn.parse(f))
    tau = _same_times(e, HORIZON, 400)
    assert (tau is None) == raises
    if raises:
        with pytest.raises(NonFiniteResult, match=r"derivative not finite at t=0\.35"):
            p.compute_tau_lambda(e, HORIZON, 400)


def test_non_finite_pauli_probabilities_before_the_first_flag_are_raised():
    px = "0.1*(1-exp(-t))+0*log(abs(t-0.4)-0.05)"
    e = p.PauliProbs(*map(p.ScalarFn.parse, (px, "0.1*(1-exp(-t))", "0.2*sin(1.5*t)^2")))
    assert _same_times(e, HORIZON, 400) is None


def test_run_report_evaluates_f_on_one_detection_grid_per_op(monkeypatch):
    # T's revival peak, t_star, delta and rhp all read the family's turns,
    # from one pass of its rates, f' with f, over the detection grid; the core
    # reads the parent's past T; nothing else samples f on a grid that fine
    sizes = {"eval_ast": [], "eval_dual": []}
    for name, seen in sizes.items():
        evaluate = getattr(exprparse, name)
        monkeypatch.setattr(exprparse, name, lambda node, t, seen=seen, evaluate=evaluate: seen.append(np.size(t)) or evaluate(node, t))
    doc = run_report(load_config('{"evolution": {"preset": "paper-example"}}'))
    assert doc["classification"] == "NNM" and "core" in doc
    assert [size for size in sizes["eval_ast"] if size >= 2048] == [2048]  # the one search for a zero of f
    assert [size for size in sizes["eval_dual"] if size > 2000] == [DETECT_POINTS]


@st.composite
def turning_families(draw):
    """Random revival and damped depolarizing families at d = 2, 3;
    exp(-a t) cos(b t) changes sign."""
    a, b = draw(st.floats(0.1, 0.6)), draw(st.floats(2.0, 5.0))
    if draw(st.booleans()):
        c = draw(st.floats(0.2, 0.45))
        f = f"exp(-{a}*t)*(1-{c}+{c}*cos({b}*t))"
    else:
        f = f"exp(-{a}*t)*cos({b}*t)"
    return p.Depolarizing(p.ScalarFn.parse(f), dim=draw(st.sampled_from([2, 3])))


@settings(max_examples=40, deadline=None)
@given(e=turning_families(), horizon=st.floats(3.0, 5.0))
def test_turning_sequence_delta_and_peak_match_a_dense_grid(e, horizon):
    ts = np.linspace(0.0, horizon, 2**18 + 1)
    fv = e.f(ts)
    step = ts[1] - ts[0]
    # a grid misses each extremum by at most max|f''| step^2 / 8 (a sample lies
    # within step / 2 of it), and the total increase has one term per extremum
    d = np.diff(fv)
    extrema = np.count_nonzero(np.sign(d[:-1]) != np.sign(d[1:])) + 2
    curvature = np.max(np.abs(np.diff(fv, 2))) / step**2
    dense = float(np.sum(np.fmax(d, 0.0)))
    tol = extrema * curvature * step**2 / 8 + 1e-14 * (1.0 + dense)
    assert abs(p.revivals_delta(e.f, horizon) - dense) <= tol
    tau = p.compute_tau_lambda(e, horizon, 400)
    assume(tau < horizon)
    _, m = analysis._max_after(e, tau, horizon)
    after = np.linspace(tau, horizon, 2**18 + 1)
    assert m >= np.max(e.f(after)) - 1e-15


@settings(max_examples=40, deadline=None)
@given(e=turning_families(), horizon=st.floats(3.0, 5.0), frac=st.floats(0.02, 0.85))
def test_shared_core_matches_a_core_computing_its_own(e, horizon, frac):
    # the core reads the parent's turning sequence and first zero past T, on
    # the parent's grid; a family with the core's f finds its own on its own
    zero = e.non_bijective_time(horizon)
    T = frac * (horizon if zero is None else min(zero, horizon))
    e.turns(horizon)
    core = p.extract_pnm_core(e, T)
    own = p.Depolarizing(core.f, dim=e.dim)  # the core's f, with its own rates
    h = max(horizon - T, horizon / 10)
    close = lambda a, b: a == b or math.isclose(a, b, rel_tol=1e-9)
    assert close(measures._delta(core, h, 2000), measures._delta(own, h, 2000))
    assert close(p.rhp_measure(core, h, 2000), p.rhp_measure(own, h, 2000))
    z, own_z = core.non_bijective_time(h), own.non_bijective_time(h)
    assert (z is None) == (own_z is None) and (z is None or abs(z - own_z) <= 1e-9)
    tau = p.compute_tau_lambda(own, h, 400)
    assume(tau < h)
    (x, m), (own_x, own_m) = analysis._max_after(core, tau, h), analysis._max_after(own, tau, h)
    assert math.isclose(m, own_m, rel_tol=1e-12)
    # each peak is the middle of a bracket of a grid step / 2**ROOT_STEPS about
    # the root of f', on the parent's grid or on the core's
    assert abs(x - own_x) <= (horizon + h) / (DETECT_POINTS - 1) / 2 ** (ROOT_STEPS + 1)


def _reference_first_failing(e, cs, t_grid, tol=1e-9):
    return next((k for k, c in enumerate(cs) if not _old_condition_b(e, float(c), t_grid, tol)), None)


def test_ratio_blocks_find_the_first_failing_candidate_at_every_position():
    e = p.PauliRates(*(p.ScalarFn.parse(x) for x in ("0.5", "0.5", "0.2+0.6*cos(3*t)")))
    t_grid = np.linspace(0.0, HORIZON, 400)
    lam = e.map_eigenvalues(t_grid)
    T_ab = p.compute_T_lambda(e, HORIZON, None, 400)  # about 0.443
    positions = set()
    for k in range(63):
        # 63 candidates whose first failing one is the k-th
        cs = np.linspace(0.0, T_ab * 63 / (k + 0.5), 64)[1:]
        first = analysis._first_failing(e, cs, t_grid, lam, 1e-9)
        assert first == _reference_first_failing(e, cs, t_grid)
        positions.add(first)
    assert positions == set(range(63))


def test_ratio_blocks_raise_at_a_singular_candidate_as_one_at_a_time():
    # every lambda_i = 1 - 0.4 t decays to 0 at the horizon and last
    # candidate, t = 2.5; condition (B) holds at every candidate before it
    e = p.PauliProbs(*map(p.ScalarFn.parse, ("0.1*t", "0.1*t", "0.1*t")))
    t_grid = np.linspace(0.0, 2.5, 400)
    cs = np.linspace(0.0, 2.5, 6)[1:]
    blocked = _outcome_msg(lambda: analysis._first_failing(e, cs, t_grid, e.map_eigenvalues(t_grid), 1e-9))
    reference = _outcome_msg(lambda: _reference_first_failing(e, cs, t_grid))
    assert blocked == reference
    assert reference[1] == (SingularMap, "Pauli map not invertible at s=2.5")


def _full_grid_paths(cls):
    """verify_composition_rules as it was before band rows, cell by cell:
    the float32 count of CPTP·CPTP paths into each NonCPTP cell."""
    a = np.triu(cls == CPTP, 1).astype(np.float32)
    return np.where(np.triu(cls == NONCPTP, 2), a @ a, 0.0)


def _dipped(e, horizon, n, m, depth):
    """e minus a Gaussian dip to -(depth - 1) f(t_m) at the scan time t_m =
    times[m], ten times narrower than the distance from t_m to
    find_first_zero's 2048-point grid, so that non_bijective_time misses
    the zero; None where t_m is on that grid."""
    t_m = float(np.linspace(0.0, horizon, n)[m])
    step = horizon / 2047
    gap = abs(t_m - round(t_m / step) * step)
    if gap <= 1e-6 * horizon:
        return None
    f = f"{e.f.source}-{depth * float(e.f(t_m))!r}*exp(-((t-{t_m!r})/{gap / 10!r})^2)"
    return p.Depolarizing(p.ScalarFn.parse(f), dim=e.dim)


@st.composite
def fold_cases(draw):
    """(family, horizon, n, tol): depolarizing f positive, sign-changing (a
    regularized scan) or positive but for a negative dip no zero search
    sees, at d = 2, 3; Pauli probabilities and rates, quasi-eternal
    families and shifted cores; tol log-uniform up to 1e-1, so that band
    rows occur."""
    n, horizon = draw(st.integers(16, 200)), draw(st.sampled_from([HORIZON, 400.0]))
    tol = draw(st.just(0.0) | st.floats(-16.0, -1.0).map(lambda x: 10.0**x))
    if draw(st.booleans()):
        return draw(pauli_families()), horizon, n, tol
    e = draw(depolarizing_families())
    if draw(st.booleans()) and e.non_bijective_time(horizon) is None:
        e = _dipped(e, horizon, n, draw(st.integers(1, n - 1)), draw(st.floats(1.1, 3.0)))
        assume(e is not None)
    return e, horizon, n, tol


def _check_fold(e, horizon, n, tol):
    """The deferred grid's count, minimum and band rows against the
    full-grid ones, and its materialized grid against the full-square scan."""
    grid, err = _outcome_msg(lambda: p.scan_regions(e, horizon, n, tol))
    with np.errstate(over="ignore"):  # the full square overflows below the diagonal
        ref, ref_err = _outcome_msg(lambda: _reference_scan(e, horizon, n, tol))
    assert err == ref_err
    if err is not None:
        return None
    count, low = p.verify_composition_rules(grid), grid.min_value()  # before value and cls exist
    value, cls, regularized = ref
    assert grid.value.tobytes() == value.tobytes()
    assert np.array_equal(grid.cls, cls)
    assert grid.regularized == regularized
    paths = _full_grid_paths(cls)
    assert count == int(paths.sum(dtype=np.float64))
    assert not np.any(value[paths > 0] < -grid.bound)  # the theorem, cell by cell
    i, j = np.unravel_index(np.argmin(np.where(np.isfinite(value), value, np.inf)), value.shape)
    assert repr(low) == repr((float(value[i, j]), float(grid.times[i]), float(grid.times[j])))
    band = np.flatnonzero(((value < -grid.tol) & ~(value < -grid.bound)).any(axis=1))
    assert np.array_equal(grid._fold[1], band)  # the rows with a cell in [-B, -tol)
    return grid, count


@settings(max_examples=150, deadline=None)
@given(case=fold_cases())
@example(case=(SQRT_NAN, 2.0, 64, SCAN_TOL))
def test_folded_count_and_minimum_match_the_full_grid(case):
    _check_fold(*case)


@pytest.mark.parametrize(
    "e",
    [
        p.Depolarizing(p.ScalarFn.parse("exp(-0.3*t)*(1+0.5*cos(2*t))/1.5")),
        p.Depolarizing(p.ScalarFn.parse("exp(-0.5*t)*cos(2*t)")),  # regularized
        p.PauliRates(*[p.ScalarFn.parse("0.3+0.4*cos(2*t)")] * 3),
    ],
    ids=["revival", "regularized", "pauli-rates"],
)
def test_band_rows_are_multiplied(e):
    # at tol = 1e-2 some cells in [-B, -tol) have CPTP·CPTP paths, the lowest
    # within 3% of -B: the band branch counts them, and a smaller B fails
    grid, count = _check_fold(e, HORIZON, 150, 1e-2)
    assert math.isfinite(grid.bound) and len(grid._fold[1]) and count > 0


def _blocked_fold(grid):
    """The grid's fold over every cell, a block of rows at a time."""
    blocked = p.CptpGrid(grid.horizon, grid.n, grid.times, regularized=grid.regularized, tol=grid.tol, rows=grid.rows, bound=grid.bound)
    assert grid.fold is not None and blocked.fold is None
    return blocked._fold


@pytest.mark.parametrize(
    "f, horizon, n",
    [
        ("sqrt(1-0.6*t)", 2.0, 64),  # NaN samples past t = 5/3
        ("exp(-800*t)", 0.9, 64),  # ratios of subnormal samples
        ("exp(-800*t)", 2.0, 64),  # f underflows to 0: a regularized scan
        ("exp(-740*(t-1)^2)", 2.0, 64),  # f(0) is subnormal: row 0's ratios overflow, -inf cells
        ("1", HORIZON, 64),  # every cell 0: each row's minimum is its diagonal
        ("1/(1-t)", 2.0, 64),  # a pole: the regularized scan
        ("-1/(1-t)", 2.0, 65),  # f(1) = -inf: its row's cells are all -inf
        ("-exp(-0.3*t)*(1+0.5*cos(2*t))/1.5", HORIZON, 64),  # f < 0: every x_i and x_j negated
        ("exp(-0.3*t)*(1+0.5*cos(2*t))/1.5", HORIZON, 16),
        ("exp(-0.5*t)*cos(2*t)", HORIZON, 17),
        (PAPER_EXAMPLE_F, 3.0, 2048),
        ("exp(-0.3*t)*(1+0.5*cos(2*t))/1.5", HORIZON, 2048),
    ],
)
@pytest.mark.parametrize("tol", [SCAN_TOL, 1e-2])
def test_sorted_fold_matches_the_blocked_fold(f, horizon, n, tol):
    # bit for bit: the first smallest cell and the band rows
    for dim in (2, 3):
        e = p.Depolarizing(p.ScalarFn.parse(f), dim=dim)
        grid = p.scan_regions(e, horizon, n, tol)
        (v, i, j), band = grid._fold
        (want_v, want_i, want_j), want_band = _blocked_fold(grid)
        assert (np.float64(v).tobytes(), i, j) == (np.float64(want_v).tobytes(), want_i, want_j)
        assert np.array_equal(band, want_band)
        if n <= 64:
            _check_fold(e, horizon, n, tol)


def test_sorted_fold_at_a_pole():
    grid = p.scan_regions(p.Depolarizing(p.ScalarFn.parse("1/(1-t)")), 2.0, 64)
    assert grid.regularized
    v, s, t = grid.min_value()  # (f(s) - f(t)) / 4 at f(s) = 1 / (1 - 64/63), f(t) = -1
    assert (round(v, 9), round(s, 4), t) == (-15.5, 1.0159, 2.0)


def test_negative_sample_makes_every_noncptp_row_a_band_row():
    # f < 0 at one scan time only, in the trough before the revival: the two
    # legs through it read CPTP, so B is inf
    revival = p.Depolarizing(p.ScalarFn.parse("exp(-0.3*t)*(1+0.5*cos(2*t))/1.5"))
    e = _dipped(revival, HORIZON, 150, 90, 2.0)
    assert e.non_bijective_time(HORIZON) is None
    grid, count = _check_fold(e, HORIZON, 150, SCAN_TOL)
    assert grid.bound == math.inf and count > 0
