"""Region scans over the (s, t) half-plane and characteristic-time
extraction.

The scan classifies each sampled intermediate map as CPTP or not from the
smallest eigenvalue of its Choi matrix (closed forms where the family has
one).  The three characteristic times are found by a grid scan followed by
bisection refinement of the relevant sign boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UndefinedIntermediateMap
from .evolutions import (
    Depolarizing,
    Evolution,
    PauliDiagonal,
    QuasiEternal,
    ShiftedEvolution,
    ShiftedPauli,
    pauli_min_prob,
    t0_alpha,
)
from .exprparse import numeric_derivative
from .numerics import bisect_boundary, bisect_root

SCAN_TOL = 1e-10
REFINE_XTOL = 1e-4

CPTP, NONCPTP, UNDEFINED = 0, 1, 2
CLASS_NAMES = {CPTP: "CPTP", NONCPTP: "NonCPTP", UNDEFINED: "Undefined"}


@dataclass(frozen=True)
class CptpGrid:
    """Triangular (s <= t) grid of smallest Choi eigenvalues.

    value[i, j] is lambda_{t_j, s_i} (or its regularization for
    non-invertible depolarizing evolutions); entries below the diagonal are
    NaN.  cls holds the CPTP / NonCPTP / Undefined code per cell.
    """

    horizon: float
    n: int
    times: np.ndarray
    value: np.ndarray
    cls: np.ndarray
    regularized: bool = False
    tol: float = SCAN_TOL

    def min_value(self):
        """(value, s, t) of the most negative cell."""
        masked = np.where(np.isfinite(self.value), self.value, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        return float(self.value[i, j]), float(self.times[i]), float(self.times[j])


def scan_regions(e: Evolution, horizon: float, n: int = 400, tol: float = SCAN_TOL) -> CptpGrid:
    if horizon <= 0 or n < 16:
        raise ValueError("need horizon > 0 and n >= 16")
    times = np.linspace(0.0, horizon, n)
    value = np.full((n, n), np.nan)
    cls = np.full((n, n), CPTP, dtype=np.int8)
    upper = np.triu_indices(n)
    regularized = False

    if isinstance(e, Depolarizing):
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
            undefined = np.zeros_like(val, dtype=bool)
    elif isinstance(e, PauliDiagonal):
        eig = e.map_eigenvalues(times)  # (n, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            # eig[None, j] / eig[i, None] = lambda(t_j) / lambda(t_i)
            val = pauli_min_prob(eig[None, :, :] / eig[:, None, :])
        undefined = ~np.isfinite(val)
    else:
        val = np.full((n, n), np.nan)
        undefined = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i, n):
                try:
                    val[i, j] = e.intermediate_min_choi(float(times[i]), float(times[j]))
                except UndefinedIntermediateMap:
                    undefined[i, j] = True
                    val[i, j] = np.nan

    value[upper] = np.asarray(val, dtype=float)[upper]
    np.fill_diagonal(value, 0.0)
    cls[value < -tol] = NONCPTP
    und = np.zeros((n, n), dtype=bool)
    und[upper] = undefined[upper]
    cls[und & ~(value < -tol)] = UNDEFINED
    lower = np.tril_indices(n, -1)
    value[lower] = np.nan
    return CptpGrid(horizon, n, times, value, cls, regularized, tol)


@dataclass(frozen=True)
class CharTimes:
    """The characteristic-time triple. math.inf marks a bound never hit
    inside the horizon (horizon_limited is then set)."""

    T: float
    tau: float
    t_star: float
    classification: str = ""
    horizon: float = 0.0
    horizon_limited: tuple = ()

    def shifted(self) -> "CharTimes":
        """Times of the extracted core: (0, tau - T, t_star - T)."""
        if not math.isfinite(self.T):
            raise ValueError("cannot shift by an infinite T")
        return CharTimes(
            0.0,
            self.tau - self.T if math.isfinite(self.tau) else math.inf,
            self.t_star - self.T if math.isfinite(self.t_star) else math.inf,
            "PNM",
            self.horizon,
            self.horizon_limited,
        )


def _infinitesimal_non_cptp(e: Evolution, t: float, step: float) -> bool:
    """Classifier for the infinitesimal intermediate map at t."""
    if isinstance(e, Depolarizing):
        tt = max(t, 1e-7)
        return numeric_derivative(e.f, tt) > 0.0
    rm = e.rate_min(t)
    if rm is not None:
        return rm < 0.0
    # scaled eigenvalue limit with sign agreement at two step sizes
    def scaled(eps: float) -> float:
        try:
            return e.intermediate_min_choi(t, t + eps) / eps
        except UndefinedIntermediateMap:
            return -math.inf

    v1, v2 = scaled(step), scaled(step / 2.0)
    if min(abs(v1), abs(v2)) <= SCAN_TOL:
        return False
    if (v1 < 0) == (v2 < 0):
        return v1 < 0
    return scaled(step / 4.0) < 0  # disagreement: trust the finest step


def compute_tau_lambda(e: Evolution, horizon: float, n: int = 400) -> float:
    """Earliest time whose infinitesimal intermediate map is non-CPTP;
    math.inf if none is found inside the horizon."""
    ts = np.linspace(0.0, horizon, n)
    step = float(ts[1] - ts[0])
    prev = 0.0
    for t in ts:
        if _infinitesimal_non_cptp(e, float(t), step):
            if t == 0.0:
                return 0.0
            return bisect_boundary(
                lambda x: not _infinitesimal_non_cptp(e, x, step), prev, float(t), REFINE_XTOL
            )
        prev = float(t)
    return math.inf


def _refine_peak(fn, lo: float, hi: float):
    """Ternary-search the maximum of fn on [lo, hi]; (argmax, max)."""
    for _ in range(200):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if fn(a) < fn(b):
            lo = a
        else:
            hi = b
        if hi - lo < 1e-12:
            break
    x = 0.5 * (lo + hi)
    return x, fn(x)


def _max_after(e: Depolarizing, tau: float, horizon: float):
    """(argmax, max) of f on [tau, horizon], peak refined off the grid."""
    ts = np.linspace(tau, horizon, 8192)
    fv = np.asarray(e.f(ts), dtype=float)
    i = int(np.argmax(fv))
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, len(ts) - 1)])
    if lo == hi:
        return float(ts[i]), float(fv[i])
    return _refine_peak(e.f_at, lo, hi)


def _depolarizing_T(e: Depolarizing, horizon: float, tau: float) -> float:
    if tau >= horizon:
        return math.inf
    _, m = _max_after(e, tau, horizon)
    if m >= e.f_at(0.0) - 1e-9:
        return 0.0
    # f is non-increasing on [0, tau]; T solves f(T) = m there
    g = lambda x: e.f_at(x) - m
    if g(tau) >= 0:
        return tau
    return bisect_root(g, 0.0, tau, xtol=1e-7)


def _min_choi_row(e: Evolution, s: float, ts: np.ndarray) -> np.ndarray:
    """Smallest Choi eigenvalue of V_{t,s} for each t in ts; -inf where the
    map is undefined."""
    if isinstance(e, PauliDiagonal):
        return e.intermediate_min_choi(s, ts)
    out = np.empty(len(ts))
    for k, t in enumerate(ts):
        try:
            out[k] = e.intermediate_min_choi(s, float(t))
        except UndefinedIntermediateMap:
            out[k] = -math.inf
    return out


def _condition_b(e: Evolution, T: float, t_grid: np.ndarray, tol: float) -> bool:
    """V_{t,T} CPTP for every grid t >= T."""
    return not np.any(_min_choi_row(e, T, t_grid[t_grid >= T]) < -tol)


def compute_T_lambda(
    e: Evolution, horizon: float, tau: Optional[float] = None, n: int = 400, tol: float = 1e-9
) -> float:
    """Largest T with (A) CP-divisibility up to T, (B) V_{t,T} CPTP for all
    later grid t, (C) the map at T non-unitary (T = 0 exempt)."""
    if tau is None:
        tau = compute_tau_lambda(e, horizon, n)
    if not math.isfinite(tau):
        return math.inf
    if isinstance(e, Depolarizing):
        return _depolarizing_T(e, horizon, tau)

    t_grid = np.linspace(0.0, horizon, n)
    cap = min(tau, horizon)
    b = lambda T: _condition_b(e, T, t_grid, tol)
    if not b(0.0):
        return 0.0
    if b(cap):
        t_ab = cap
    else:
        # valid-(A and B) set is an interval [0, T_AB]: bracket then bisect
        coarse = np.linspace(0.0, cap, 65)
        hi = next(float(c) for c in coarse[1:] if not b(float(c)))
        lo = hi - cap / 64.0
        t_ab = bisect_boundary(b, lo, hi, REFINE_XTOL)
    if t_ab > 0 and e.is_unitary_at(max(t_ab - REFINE_XTOL, 0.0)):
        # condition (C): walk back to the latest non-unitary time,
        # skipping the refinement-width neighborhood of the boundary
        for T in np.linspace(t_ab, 0.0, 65):
            if T >= t_ab - REFINE_XTOL:
                continue
            if T > 0 and not e.is_unitary_at(float(T)):
                return bisect_boundary(
                    lambda x: not e.is_unitary_at(x), float(T), t_ab, REFINE_XTOL
                )
        return 0.0
    return t_ab


def compute_t_star(
    e: Evolution, horizon: float, T: float, tau: float, n: int = 400, tol: float = 1e-9
) -> float:
    """Earliest final time t with V_{t, T + delta} non-CPTP for small delta."""
    if not math.isfinite(T):
        return math.inf
    if abs(tau - T) <= 2 * REFINE_XTOL:
        return T  # T = tau forces T = tau = t_star
    if isinstance(e, Depolarizing):
        target = e.f_at(T)
        ts = np.linspace(tau, horizon, max(n, 2048))
        fv = np.asarray(e.f(ts), dtype=float) - target
        idx = np.nonzero(fv >= 0)[0]
        if len(idx):
            i = int(idx[0])
            if i == 0:
                return float(ts[0])
            return bisect_root(
                lambda x: e.f_at(x) - target, float(ts[i - 1]), float(ts[i]), 1e-6
            )
        # f only touches f(T) tangentially at its revival peak
        tp, fp = _max_after(e, tau, horizon)
        if fp >= target - 1e-6:
            return tp
        return math.inf

    delta = min((tau - T) / 4.0, (horizon / n) or 1e-3)
    s = T + delta
    ts = np.linspace(s, horizon, n)
    bad = np.flatnonzero(_min_choi_row(e, s, ts[1:]) < -tol)
    if not len(bad):
        return math.inf
    k = int(bad[0])
    return bisect_boundary(
        lambda x: e.intermediate_min_choi(s, x) >= -tol, float(ts[k]), float(ts[k + 1]), REFINE_XTOL
    )


def classify_evolution(ct: CharTimes, e: Evolution, horizon: float, tol: Optional[float] = None, n: int = 400) -> str:
    if tol is None:
        # a T below grid resolution cannot be distinguished from 0
        tol = max(1e-3, 2.0 * horizon / n)
    samples = np.linspace(0.0, horizon, 17)
    if all(e.is_unitary_at(float(t)) for t in samples):
        return "UnitaryTrivial"
    if not math.isfinite(ct.T):
        return "Markovian"
    if ct.T <= tol:
        return "PNM"
    return "NNM"


def characteristic_times(e: Evolution, horizon: float, n: int = 400) -> CharTimes:
    snap = lambda v: 0.0 if 0 < v <= REFINE_XTOL else v
    tau = snap(compute_tau_lambda(e, horizon, n))
    T = snap(compute_T_lambda(e, horizon, tau, n))
    if math.isfinite(T) and abs(tau - T) <= 2 * REFINE_XTOL:
        tau = T  # T = tau collapses the whole triple (refinement jitter)
    t_star = snap(compute_t_star(e, horizon, T, tau, n))
    limited = tuple(
        name
        for name, v in (("T", T), ("tau", tau), ("t_star", t_star))
        if not math.isfinite(v)
    )
    ct = CharTimes(T, tau, t_star, "", horizon, limited)
    cls = classify_evolution(ct, e, horizon, n=n)
    return CharTimes(T, tau, t_star, cls, horizon, limited)


def extract_pnm_core(e: Evolution, T: float) -> Evolution:
    """The evolution t -> V_{t + T, T} as a first-class family."""
    if T == 0:
        return e
    if not math.isfinite(T) or T < 0:
        raise ValueError(f"T must be finite and non-negative, got {T}")
    if isinstance(e, Depolarizing):
        f_at_T = e.f_at(T)
        if f_at_T <= 1e-12:
            raise UndefinedIntermediateMap(f"f({T}) = 0: core undefined at or past t_NB")
        return Depolarizing(e.f.shifted_normalized(T, f_at_T), dim=e.dim)
    if isinstance(e, QuasiEternal) and e.t_unitary == 0.0:
        t0 = max(e.t0 - T, t0_alpha(e.alpha))  # clamp refinement error of T
        return QuasiEternal(alpha=e.alpha, t0=t0)
    if isinstance(e, PauliDiagonal):
        return ShiftedPauli(e, T)
    return ShiftedEvolution(e, T)


def verify_composition_rules(grid: CptpGrid) -> int:
    """Count the index triples i < j < k that break the map-composition rule
    (i) CPTP ∘ CPTP is CPTP: V_{t_j,t_i} and V_{t_k,t_j} CPTP, V_{t_k,t_i}
    NonCPTP.  Its contrapositives, (ii) a non-CPTP map with a CPTP first leg
    has a non-CPTP second leg and (iii) the same with the legs swapped, fail
    on exactly the same triples, so (i) stands for all three.  Triples with
    an Undefined leg are skipped.

    Every triple is checked: (A @ A)[i, k] counts the CPTP·CPTP paths i -> j
    -> k through the strict upper-triangular CPTP mask A, and the count sums
    it over the NonCPTP cells.  float32 is exact here, since a cell holds at
    most n - 2 < 2**24 paths, and much faster than an integer matmul."""
    bad = np.triu(grid.cls == NONCPTP, 2)
    rows = np.flatnonzero(bad.any(axis=1))
    if not len(rows):
        return 0
    a = np.triu(grid.cls == CPTP, 1).astype(np.float32)
    paths = a[rows] @ a
    return int(paths[bad[rows]].sum(dtype=np.float64))
