"""Region scans over the (s, t) half-plane and characteristic-time
extraction.

The scan classifies each sampled intermediate map as CPTP or not from the
closed-form smallest eigenvalue of its Choi matrix.  The three
characteristic times are found by a grid scan followed by bisection
refinement of the relevant sign boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PnmError, UndefinedIntermediateMap
from .evolutions import Depolarizing, Evolution, ShiftedPauli
from .exprparse import numeric_derivative
from .numerics import bisect_boundary, bisect_root

SCAN_TOL = 1e-10
REFINE_XTOL = 1e-4
SCAN_BLOCK = 64  # rows per scan block: bounds its temporaries to a few MB

_EVAL_ERRORS = (PnmError, ArithmeticError, ValueError)  # what evaluating a family can raise

CPTP, NONCPTP, UNDEFINED = 0, 1, 2
CLASS_NAMES = {CPTP: "CPTP", NONCPTP: "NonCPTP", UNDEFINED: "Undefined"}


class CptpGrid:
    """Triangular (s <= t) grid of smallest Choi eigenvalues.

    value[i, j] is lambda_{t_j, s_i} (or its regularization for
    non-invertible depolarizing evolutions); entries below the diagonal are
    NaN.  cls holds the CPTP / NonCPTP / Undefined code per cell.

    A scanned grid is deferred: rows(r0, r1) computes rows r0:r1, columns
    r0:n; min_value and verify_composition_rules fold those blocks, and
    value and cls build the grid on first read.  bound is the B of
    verify_composition_rules, math.inf for a grid built from arrays.
    """

    def __init__(self, horizon, n, times, value=None, cls=None, regularized=False, tol=SCAN_TOL, rows=None, bound=math.inf):
        self.horizon, self.n, self.times, self.regularized, self.tol, self.bound = horizon, n, times, regularized, tol, bound
        self.rows = rows or (lambda r0, r1: (value[r0:r1, r0:], cls[r0:r1, r0:]))
        if rows is None:
            self._grid = value, cls

    value, cls = property(lambda self: self._grid[0]), property(lambda self: self._grid[1])

    @functools.cached_property
    def _grid(self):
        value, cls = np.full((self.n, self.n), np.nan), np.full((self.n, self.n), CPTP, dtype=np.int8)
        for r0 in range(0, self.n, SCAN_BLOCK):
            v, c = self.rows(r0, min(r0 + SCAN_BLOCK, self.n))
            value[r0 : r0 + len(v), r0:], cls[r0 : r0 + len(c), r0:] = v, c
        return value, cls

    @functools.cached_property
    def _fold(self):
        """(value, i, j) of the first smallest finite cell, and the band rows."""
        best, band = None, []
        for r0 in range(0, self.n, SCAN_BLOCK):
            v, c = self.rows(r0, min(r0 + SCAN_BLOCK, self.n))
            masked = np.where(np.isfinite(v), v, np.inf)
            i, j = divmod(int(np.argmin(masked)), v.shape[1])
            if best is None or masked[i, j] < best[0]:  # strictly: the first minimum wins
                best = (masked[i, j], v[i, j], r0 + i, r0 + j)
            band.append(r0 + np.flatnonzero(((c == NONCPTP) & ~(v < -self.bound)).any(axis=1)))
        return best[1:], np.concatenate(band)

    def min_value(self):
        """(value, s, t) of the most negative cell."""
        v, i, j = self._fold[0]
        return float(v), float(self.times[i]), float(self.times[j])


def scan_regions(e: Evolution, horizon: float, n: int = 400, tol: float = SCAN_TOL) -> CptpGrid:
    if horizon <= 0 or n < 16:
        raise ValueError("need horizon > 0 and n >= 16")
    times = np.linspace(0.0, horizon, n)
    regularized = isinstance(e, Depolarizing) and e.non_bijective_time(horizon) is not None
    if regularized:
        # B: legs >= -tol telescope, f_i - f_k = (f_i - f_j) + (f_j - f_k); a NaN f_j reads CPTP both ways
        fv = np.asarray(e.f(times), dtype=float)
        bound = math.inf if np.isnan(fv).any() else 2 * tol
    else:
        eig = e.map_eigenvalues(times)  # (n, m)
        bound = e.composition_bound(eig, tol)
        by_eig = np.ascontiguousarray(eig.T)  # (m, n): each eigenvalue's ratios contiguous

    def rows(r0, r1):
        if regularized:
            # f(s) lambda_{t,s} = (f(s) - f(t)) / d^2: finite, of lambda's sign, at f(s) = 0 too
            value = (fv[r0:r1, None] - fv[None, r0:]) / e.dim**2
            undefined = np.broadcast_to(np.abs(fv[r0:r1, None]) <= 1e-9, value.shape)
        else:
            # lambda(t_j) / lambda(t_i); overflow too: cells below the diagonal are discarded
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                value = e.min_choi(np.moveaxis(by_eig[:, None, r0:] / by_eig[:, r0:r1, None], 0, -1))
            undefined = ~np.isfinite(value)
        lower = np.tri(r1 - r0, k=-1, dtype=bool)  # every cell below the diagonal is in the first r1 - r0 columns
        cls = np.where(undefined, np.int8(UNDEFINED), np.int8(CPTP))
        value[:, : r1 - r0][lower], cls[:, : r1 - r0][lower] = np.nan, CPTP
        np.fill_diagonal(value, 0.0)
        cls[value < -tol] = NONCPTP  # a negative cell is NonCPTP even if undefined
        return value, cls

    x = 1.0 + e.dim**2 * tol  # verify_composition_rules' rounding margin 1e-12 x^3 (inf if it overflows)
    return CptpGrid(horizon, n, times, regularized=regularized, tol=tol, rows=rows, bound=bound + 1e-12 * x * x * x)


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


def _non_cptp(e: Evolution, ts: np.ndarray, step: float) -> np.ndarray:
    """Whether the infinitesimal intermediate map at each time in ts is
    non-CPTP: f rising, a negative rate, or the scaled smallest eigenvalue of
    V_{t + eps, t} negative at two step sizes (the finest, if they disagree)."""
    if isinstance(e, Depolarizing):
        return numeric_derivative(e.f, np.maximum(ts, 1e-7)) > 0.0
    rm = e.rate_min(ts)
    if rm is not None:
        return rm < 0.0
    scaled = lambda ts, eps: e.intermediate_min_choi(ts, ts + eps) / eps
    v1, v2 = scaled(ts, step), scaled(ts, step / 2.0)
    a, b = np.abs(v1), np.abs(v2)
    live = np.where(b < a, b, a) > SCAN_TOL  # not (min(a, b) <= SCAN_TOL), NaN as min() has it
    agree = (v1 < 0) == (v2 < 0)
    flags, odd = live & agree & (v1 < 0), live & ~agree
    flags[odd] = scaled(ts[odd], step / 4.0) < 0  # disagreement: trust the finest step
    return flags


def compute_tau_lambda(e: Evolution, horizon: float, n: int = 400) -> float:
    """Earliest time whose infinitesimal intermediate map is non-CPTP;
    math.inf if none is found inside the horizon."""
    ts = np.linspace(0.0, horizon, n)
    step = float(ts[1] - ts[0])
    try:
        flags = _non_cptp(e, ts, step)
    except _EVAL_ERRORS:  # raise only what the times taken one by one raise before the first flag
        flags = (_non_cptp(e, ts[k : k + 1], step)[0] for k in range(len(ts)))
    k = next((k for k, flag in enumerate(flags) if flag), None)
    if k is None:
        return math.inf
    if ts[k] == 0.0:
        return 0.0
    pred = lambda x: not _non_cptp(e, np.array([x]), step)[0]
    return bisect_boundary(pred, float(ts[k - 1]), float(ts[k]), REFINE_XTOL)


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


@functools.lru_cache(maxsize=1)  # compute_T_lambda and compute_t_star share it
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


def _condition_b(e: Evolution, T: float, t_grid: np.ndarray, tol: float) -> bool:
    """V_{t,T} CPTP for every grid t >= T."""
    return not np.any(e.intermediate_min_choi(T, t_grid[t_grid >= T]) < -tol)


def _first_failing(e: Evolution, cs: np.ndarray, t_grid: np.ndarray, lam, tol: float) -> Optional[int]:
    """Index of the first T in cs where condition (B) fails, or None.  Given lam
    on t_grid, blocks of 2, 4, 8, ... candidates are each one (rows x n) ratio
    grid, until a block's lambda(T) raises or is singular; then one at a time."""
    i, rows = 0, 2
    while i < len(cs):
        block = cs[i : i + rows]
        try:
            at = e.map_eigenvalues(block)[:, None]
        except _EVAL_ERRORS:
            break
        if np.min(np.abs(at)) <= e.singular_tol:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bad = (e.min_choi(lam / at) < -tol) & (t_grid >= block[:, None])
        hit = np.flatnonzero(bad.any(axis=1))
        if len(hit):
            return i + int(hit[0])
        i, rows = i + rows, 2 * rows
    return next((k for k in range(i, len(cs)) if not _condition_b(e, float(cs[k]), t_grid, tol)), None)


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
    if not _condition_b(e, 0.0, t_grid, tol) or cap == 0.0:  # at cap = 0, (B) is (B) at 0
        return 0.0
    if _condition_b(e, cap, t_grid, tol):
        t_ab = cap
    else:
        # valid-(A and B) set is an interval [0, T_AB]: bracket then bisect
        lam = e.map_eigenvalues(t_grid)
        b = lambda T: _first_failing(e, np.array([T]), t_grid, lam, tol) is None
        cs = np.linspace(0.0, cap, 65)[1:]
        hi = float(cs[_first_failing(e, cs, t_grid, lam, tol)])
        t_ab = bisect_boundary(b, hi - cap / 64.0, hi, REFINE_XTOL)
    if t_ab > 0 and e.is_unitary_at(max(t_ab - REFINE_XTOL, 0.0)):
        # condition (C): walk back to the latest non-unitary time,
        # skipping the refinement-width neighborhood of the boundary
        for T in np.linspace(t_ab, 0.0, 65):
            if 0 < T < t_ab - REFINE_XTOL and not e.is_unitary_at(float(T)):
                return bisect_boundary(lambda x: not e.is_unitary_at(x), float(T), t_ab, REFINE_XTOL)
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
    bad = np.flatnonzero(e.intermediate_min_choi(s, ts[1:]) < -tol)
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
    """The evolution t -> V_{t + T, T} as a first-class family: the parent
    shifted by T, with f(t + T) / f(T) for a depolarizing parent and
    lambda(t + T) / lambda(T) for a Pauli-diagonal one."""
    if T == 0:
        return e
    if not math.isfinite(T) or T < 0:
        raise ValueError(f"T must be finite and non-negative, got {T}")
    if isinstance(e, Depolarizing):
        f_at_T = e.f_at(T)
        if f_at_T <= 1e-12:
            raise UndefinedIntermediateMap(f"f({T}) = 0: core undefined at or past t_NB")
        return Depolarizing(lambda ts: e.f(np.add(ts, T)) / f_at_T, dim=e.dim)
    return ShiftedPauli(e, T)


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
    most n - 2 < 2**24 paths, and much faster than an integer matmul.

    Only band rows are multiplied, by this theorem: in a grid scanned from
    a diagonal family, a NonCPTP cell below -B has no CPTP·CPTP path, so
    rows with no NonCPTP cell in [-B, -tol) add nothing.  B is the family's
    composition_bound (the regularized scan's is in scan_regions), exact
    for legs >= -tol, plus 1e-12 x^3, x = 1 + d^2 tol, for rounding: CPTP
    legs have finite ratios, so lambda_j is finite and non-zero, lambda_i
    non-zero, and R_ik = R_ij R_jk (0 = 0 where lambda_i is infinite); their
    ratios are below 2x, the cell's below 4x^2; a cell is its exact value
    after a ratio, four sums and a /d^2, each off by u = 2^-53 of operands
    below 13x^2 (2^-1075 on underflow), or after a difference and a /d^2,
    within 3u of itself, so rounding moves the bound by less than 1e-14
    x^2.  B is inf where x^3 overflows and for a grid built from arrays."""
    rows = grid._fold[1]
    if not len(rows):
        return 0
    cls = grid.cls
    a = np.triu(cls == CPTP, 1).astype(np.float32)
    bad = (cls[rows] == NONCPTP) & (np.arange(grid.n) >= rows[:, None] + 2)
    return int((a[rows] @ a)[bad].sum(dtype=np.float64))
