"""Information quantifiers, flux series, and non-Markovianity measures.

All measures here are evaluated for explicit initializations (ancilla-free
orthogonal state pairs) rather than by maximizing over the full state space.
For depolarizing evolutions this is exact: every orthogonal pair saturates
the optimum because the trace-norm distance scales with the characteristic
function.  For other families the results are lower bounds and the report
labels them as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    DegeneratePair,
    DomainError,
    UndefinedIntermediateMap,
    UnsupportedDimension,
    ZeroDifference,
)
from .evolutions import F_ZERO_TOL, Depolarizing, DiagonalEvolution, Evolution, PauliDiagonal, pauli_probs
from .exprparse import ScalarFn
from .numerics import bisect_boundary

HERM_INPUT_TOL = 1e-8
STATE_TOL = 1e-8
DETECT_POINTS = 16384  # rhp turning points closer than horizon / DETECT_POINTS can be missed
RATE_POINTS = 32768  # rate signs are cheap to sample: a finer grid for sin(1/t)-like rates
ZOOM_POINTS, ZOOM_LEVELS = 33, 4  # an extremum is refined to 2 steps / 16**4
ROOT_STEPS = 12  # bisection steps of a rate sign change: 2**-12 of a grid step


@dataclass(frozen=True)
class StatePair:
    """Two density matrices of equal dimension, evolved and compared."""

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self):
        if self.rho1.shape != self.rho2.shape:
            raise DomainError("state pair dimensions differ")
        for rho in (self.rho1, self.rho2):
            if not linalg.is_valid_density_matrix(rho, tol=STATE_TOL):
                raise DomainError("StatePair entries must be density matrices")

    @property
    def dim(self) -> int:
        return self.rho1.shape[0]


def distinguishability(p: StatePair) -> float:
    """Trace-norm distance ||rho1 - rho2||_1, in [0, 2]."""
    return linalg.trace_norm(p.rho1 - p.rho2)


def guessing_probability(p: StatePair) -> float:
    """Optimal success probability for discriminating the two states with
    equal priors."""
    return (2.0 + distinguishability(p)) / 4.0


def evolve_pair(e: Evolution, p: StatePair, t: float) -> StatePair:
    m = e.dynamical_map(t)
    return StatePair(linalg.apply_map(m, p.rho1), linalg.apply_map(m, p.rho2))


def orthogonal_pair_from_difference(delta_op: np.ndarray) -> StatePair:
    """Split a traceless hermitian operator into an orthogonal state pair
    whose difference is proportional to it with trace norm 2."""
    if np.max(np.abs(delta_op - delta_op.conj().T)) > HERM_INPUT_TOL:
        raise DomainError("difference operator must be hermitian")
    if abs(np.trace(delta_op).real) > HERM_INPUT_TOL:
        raise DomainError("difference operator must be traceless")
    w, v = np.linalg.eigh(linalg.hermitian_part(delta_op))
    tn = float(np.sum(np.abs(w)))
    if tn < 1e-12:
        raise ZeroDifference("difference operator is numerically zero")
    w = 2.0 * w / tn
    pos = (v * np.clip(w, 0.0, None)) @ v.conj().T
    neg = (v * np.clip(-w, 0.0, None)) @ v.conj().T
    return StatePair(linalg.hermitian_part(pos), linalg.hermitian_part(neg))


@dataclass(frozen=True)
class FluxSeries:
    """Information values W on a uniform time grid with forward-difference
    fluxes sigma (length n - 1)."""

    times: np.ndarray
    W: np.ndarray
    sigma: np.ndarray


def flux_series(e: Evolution, p: StatePair, horizon: float, n: int) -> FluxSeries:
    if n < 2:
        raise DomainError("flux series needs at least two samples")
    times = np.linspace(0.0, horizon, n)
    if isinstance(e, Depolarizing) and p.dim == e.dim:
        # trace distance of a depolarized pair scales exactly with f
        d0 = distinguishability(p)
        W = d0 * np.abs(np.asarray(e.f(times), dtype=float))
    elif isinstance(e, PauliDiagonal) and p.dim == 2:
        # a Pauli map scales Bloch vectors componentwise, and the trace
        # distance of two qubit states is the distance of their Bloch vectors
        lam = e.dynamical_eigenvalues(times)
        r = np.array([[np.trace(rho @ linalg.PAULI[k]).real for k in "xyz"] for rho in (p.rho1, p.rho2)])
        # an evolved state is a density matrix iff its Bloch vector has length <= 1
        if np.max(np.linalg.norm(lam[:, None, :] * r, axis=-1)) > 1.0 + 2.0 * STATE_TOL:
            raise DomainError("StatePair entries must be density matrices")
        W = np.linalg.norm(lam * (r[0] - r[1]), axis=-1)
    else:
        W = np.array([distinguishability(evolve_pair(e, p, float(t))) for t in times])
    step = float(times[1] - times[0])
    return FluxSeries(times, W, np.diff(W) / step)


def integrate_flux_measures(series: FluxSeries):
    """(M_W, M_W_max, M_W_av): total retrieved information, largest
    single-interval backflow, and largest excess over the running mean."""
    W = series.W
    step = float(series.times[1] - series.times[0])
    m_w = float(np.sum(np.clip(np.diff(W), 0.0, None)))
    m_w_max = float(max(0.0, np.max(W - np.minimum.accumulate(W))))
    # trapezoidal running mean of W on [0, t_k]
    cum = np.concatenate([[0.0], np.cumsum((W[1:] + W[:-1]) / 2.0 * step)])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = cum[1:] / series.times[1:]
    m_w_av = float(max(0.0, np.max(W[1:] - mean)))
    return m_w, m_w_max, m_w_av


def revivals_delta(f: ScalarFn, horizon: float, n: int = 2000) -> float:
    """Total increase of f over all maximal intervals of growth, between its
    refined local extrema."""
    return _total_decrease(lambda ts: -f(ts)[..., None], np.linspace(0.0, horizon, n))


def depolarizing_measures(delta: float, f_at_T: float):
    """Closed forms (M_D, M_D_core, M_mix, M_mix_core) for a depolarizing
    evolution with total revival delta and characteristic value f(T)."""
    if f_at_T <= 0:
        raise DomainError(f"f at T must be positive, got {f_at_T}")
    if delta < 0:
        raise DomainError(f"total revival must be non-negative, got {delta}")
    return (
        2.0 * delta,
        2.0 * delta / f_at_T,
        delta / (1.0 + delta),
        delta / (f_at_T + delta),
    )


def amplification_factor(e: Evolution, p: StatePair, T: float) -> float:
    """Backflow gain of the core over the parent: 2 divided by the
    distinguishability surviving at time T."""
    d = distinguishability(evolve_pair(e, p, T))
    if d < 1e-12:
        raise DegeneratePair("evolved pair is indistinguishable at T")
    return 2.0 / d


def _choi_trace_norm_excess(e: Evolution, s: float, t: float) -> float:
    choi = linalg.choi_of(e.intermediate_map(s, t))
    return max(0.0, linalg.trace_norm(choi) - 1.0)


def _decrease(c: np.ndarray) -> float:
    """Summed drops between consecutive rows of c; a nan step counts 0."""
    return float(np.sum(np.fmax(c[:-1] - c[1:], 0.0)))


def _rate_roots(e: Evolution, ts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sign changes of each rate column of g = e.rates(ts), bisected together."""
    k, i = np.nonzero((g[:-1] < 0) != (g[1:] < 0))
    lo, hi, neg = ts[k], ts[k + 1], g[k, i] < 0
    for _ in range(ROOT_STEPS if len(k) else 0):
        mid = 0.5 * (lo + hi)
        left = (e.rates(mid)[np.arange(len(k)), i] < 0) == neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _total_decrease(c, ts: np.ndarray) -> float:
    """Summed total decrease of the columns of c(ts) on [ts[0], ts[-1]]: the
    drops between the grid points and the local extrema of c, each refined
    by zooming in on the best sample."""
    cv = c(ts)
    d = np.diff(cv, axis=0, prepend=cv[:1], append=cv[-1:])  # flat beyond the ends
    k, i = np.nonzero((np.sign(d[:-1]) != np.sign(d[1:])) & np.isfinite(d[:-1] + d[1:]))
    sign = np.where((d[k, i] > 0) | (d[k + 1, i] < 0), 1.0, -1.0)  # +1: a maximum at ts[k]
    lo, hi, rows = ts[np.maximum(k - 1, 0)], ts[np.minimum(k + 1, len(ts) - 1)], np.arange(len(k))
    for _ in range(ZOOM_LEVELS):
        s = np.linspace(lo, hi, ZOOM_POINTS, axis=-1)
        v = c(s)
        j = np.argmax(sign[:, None] * v[rows, :, i], axis=1)
        lo, hi = s[rows, np.maximum(j - 1, 0)], s[rows, np.minimum(j + 1, ZOOM_POINTS - 1)]
    order = np.argsort(np.concatenate([ts, s[rows, j]]), kind="stable")
    return _decrease(np.concatenate([cv, v[rows, j]])[order])


def rhp_measure(e: Evolution, horizon: float, n: int = 4000) -> float:
    """Rivas-Huelga-Plenio measure, the integrated Choi trace-norm excess of
    the infinitesimal intermediate maps, in closed form.

    With the canonical rates gamma_i of a Pauli-diagonal family (Hall,
    Cresser, Li, Andersson, PRA 89, 042120 (2014)) the excess of V_{t+dt,t}
    is 2 sum_i max(-gamma_i, 0) dt, so RHP is twice the total decrease of
    c_i = int gamma_i = lnlambda_i / 2 - sum_k lnlambda_k / 4; for a
    depolarizing family it is 2(d^2 - 1)/d^2 times the total increase of
    ln|f|.  The turning points of c are bracketed on one grid of
    max(n, DETECT_POINTS) points, or from the sign of the rate expressions
    on max(n, RATE_POINTS) points where the family has them, and refined;
    between them the sum is exact.  inf where an eigenvalue rises out of a
    zero (non_bijective_time).  Other families get the excess summed over n
    grid steps, undefined steps skipped."""
    if isinstance(e, Depolarizing):
        weight, to_c = 2.0 * (1.0 - 1.0 / e.dim**2), np.negative
    elif isinstance(e, PauliDiagonal):
        weight = 2.0
        to_c = lambda logs: logs / 2.0 - (logs[..., :1] + logs[..., 1:2] + logs[..., 2:]) / 4.0
    else:
        total, times = 0.0, np.linspace(0.0, horizon, n)
        for s, t in zip(times[:-1], times[1:]):
            try:
                total += _choi_trace_norm_excess(e, float(s), float(t))
            except UndefinedIntermediateMap:
                continue
        return total
    c = lambda ts: to_c(e.log_map_eigenvalues(ts))
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = np.linspace(0.0, horizon, max(n, RATE_POINTS))
        g = e.rates(ts)
        if g is not None:
            # c is monotone between the sign changes of the rates
            points = np.sort(np.concatenate([[0.0, horizon], _rate_roots(e, ts, g)]))
            return weight * _decrease(c(points))
        ts = np.linspace(0.0, horizon, max(n, DETECT_POINTS))
        t_nb = e.non_bijective_time(horizon)
        if t_nb is not None:
            if np.any(np.sum(e.log_map_eigenvalues(ts[ts > t_nb]), axis=-1) > math.log(F_ZERO_TOL)):
                return math.inf
            ts = ts[ts < t_nb]
        return weight * _total_decrease(c, ts)


def _is_eb(e: Evolution, ts):
    """PPT (entanglement-breaking) test of the qubit dynamical maps at ts; for
    Pauli-diagonal maps, and depolarizing ones with lambda = (f, f, f), the
    partial transpose of the Choi state has eigenvalues 1/2 - p_i."""
    if not isinstance(e, DiagonalEvolution):
        dense = lambda t: linalg.is_eb_qubit(e.dynamical_map(float(t)))
        return np.vectorize(dense, otypes=[bool])(ts)
    lam = e.dynamical_eigenvalues(ts)
    lam = np.broadcast_to(lam, lam.shape[:-1] + (3,))  # m = 1: (f, f, f)
    return 0.5 - np.maximum.reduce(pauli_probs(lam)) >= -1e-10


def eb_time_qubit(e: Evolution, horizon: float, n: int = 400) -> Optional[float]:
    """Earliest time after which the map stays entanglement-breaking up to
    the horizon; None if it never does."""
    if e.dim != 2:
        raise UnsupportedDimension(f"EB check implemented for qubits, got dim {e.dim}")
    times = np.linspace(0.0, horizon, n)
    eb = _is_eb(e, times)
    if not eb[-1]:
        return None
    if np.all(eb):
        return 0.0
    idx = int(np.flatnonzero(~eb)[-1]) + 1  # onset of the trailing all-EB suffix
    return bisect_boundary(
        lambda x: not _is_eb(e, x),
        float(times[idx - 1]),
        float(times[idx]),
        xtol=1e-5,
    )


@dataclass(frozen=True)
class MeasureReport:
    """Measure bundle for one evolution and, when NNM, its extracted core.
    None marks a quantity with no closed form for the family (M_mix outside
    depolarizing) or no EB onset inside the horizon."""

    delta: float
    M_D: float
    M_D_core: Optional[float]
    M_mix: Optional[float]
    M_mix_core: Optional[float]
    M_W_max: float
    M_W_av: float
    rhp: float
    amplification: Optional[float]
    eb_time: Optional[float]
    exact: bool = True


def _default_pair(dim: int) -> StatePair:
    d = np.zeros((dim, dim), dtype=complex)
    d[0, 0], d[1, 1] = 1.0, -1.0
    return orthogonal_pair_from_difference(d)


def measure_report(
    e: Evolution, horizon: float, T: float, n: int = 2000, pair: Optional[StatePair] = None
) -> MeasureReport:
    """Full measure bundle for an evolution whose T has been computed."""
    pair = pair or _default_pair(e.dim)
    series = flux_series(e, pair, horizon, n)
    m_w, m_w_max, m_w_av = integrate_flux_measures(series)
    rhp = rhp_measure(e, horizon, n)
    eb = eb_time_qubit(e, horizon, max(400, n // 4)) if e.dim == 2 else None
    amp = None
    if math.isfinite(T) and T >= 0:
        try:
            amp = amplification_factor(e, pair, T)
        except DegeneratePair:
            amp = None
    if isinstance(e, Depolarizing):
        delta = revivals_delta(e.f, horizon, n)
        f_at_T = e.f_at(T) if math.isfinite(T) else 1.0
        if f_at_T > 0:
            m_d, m_d_core, m_mix, m_mix_core = depolarizing_measures(delta, f_at_T)
        else:
            m_d, m_d_core, m_mix, m_mix_core = 2.0 * delta, None, None, None
        return MeasureReport(
            delta, m_d, m_d_core, m_mix, m_mix_core, m_w_max, m_w_av, rhp, amp, eb, True
        )
    delta = m_w / 2.0
    m_d_core = m_w * amp / 2.0 if amp is not None else None
    return MeasureReport(
        delta, m_w, m_d_core, None, None, m_w_max, m_w_av, rhp, amp, eb, False
    )
