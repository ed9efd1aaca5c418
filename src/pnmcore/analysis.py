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

from .evolutions import Depolarizing, Evolution, ShiftedDepolarizing, ShiftedPauli
from .numerics import EVAL_ERRORS, bisect_boundary, bisect_root

SCAN_TOL = 1e-10
REFINE_XTOL = 1e-4
SCAN_BLOCK = 64  # rows per scan block: bounds its temporaries to a few MB

CPTP, NONCPTP, UNDEFINED = 0, 1, 2
CLASS_NAMES = {CPTP: "CPTP", NONCPTP: "NonCPTP", UNDEFINED: "Undefined"}


class CptpGrid:
    """Triangular (s <= t) grid of smallest Choi eigenvalues.

    value[i, j] is lambda_{t_j, s_i} (or its regularization for
    non-invertible depolarizing evolutions); entries below the diagonal are
    NaN.  cls holds the CPTP / NonCPTP / Undefined code per cell.

    A scanned grid is deferred: rows(r0, r1) computes rows r0:r1, columns
    r0:n (rows(r0, r1, False) their values alone); min_value and
    verify_composition_rules fold those blocks, or call fold(grid), and
    value and cls build the grid on first read.  bound is the B of
    verify_composition_rules, math.inf for a grid built from arrays.
    """

    def __init__(self, horizon, n, times, value=None, cls=None, regularized=False, tol=SCAN_TOL, rows=None, bound=math.inf, fold=None):
        self.horizon, self.n, self.times, self.regularized, self.tol, self.bound = horizon, n, times, regularized, tol, bound
        self.rows = rows or (lambda r0, r1, classes=True: (value[r0:r1, r0:], cls[r0:r1, r0:]) if classes else value[r0:r1, r0:])
        self.fold = fold
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
        """(value, i, j) of the first smallest finite cell; the band rows, with a cell in [-B, -tol)."""
        if self.fold is not None:
            return self.fold(self)
        best, band = None, []
        for r0 in range(0, self.n, SCAN_BLOCK):
            v = self.rows(r0, min(r0 + SCAN_BLOCK, self.n), False)
            masked = np.where(np.isfinite(v), v, np.inf)
            i, j = divmod(int(np.argmin(masked)), v.shape[1])
            if best is None or masked[i, j] < best[0]:  # strictly: the first minimum wins
                best = (masked[i, j], v[i, j], r0 + i, r0 + j)
            band.append(r0 + np.flatnonzero(((v < -self.tol) & ~(v < -self.bound)).any(axis=1)))
        return best[1:], np.concatenate(band)

    def min_value(self):
        """(value, s, t) of the most negative cell."""
        v, i, j = self._fold[0]
        return float(v), float(self.times[i]), float(self.times[j])


def _sorted_fold(grid: CptpGrid, x: np.ndarray, cell):
    """CptpGrid._fold in O(n log n) where cell(x_i, x_j) falls as the
    sample x_j = f(t_j) rises: IEEE rounding keeps (x_i - x_j) / d^2 and
    (1 - x_j / x_i) / d^2 monotone, the latter once a negative x_i and all
    x_j are negated (x_j / x_i and -x_j / -x_i round alike).  Row minima:
    the diagonal's 0.0 and the cells at the largest and smallest finite
    x_j, j > i, or the whole row where one is -inf; the first row with the
    least is recomputed, for the blocked fold's bits and tie rule.  Band
    rows: binary lifting over the sorted samples finds each row's cells in
    [-B, -tol), and a sparse-table range maximum whether one has j > i.  A
    cell with both depolarizing Choi eigenvalues, the lesser of a falling
    and a rising x_j function, has the same row minima but band cells on
    both sides of x_i."""
    row = lambda i: np.where(np.isfinite(u := grid.rows(i, i + 1, False)[0]), u, np.inf)  # its finite cells
    fin = np.where(np.isfinite(x), x, np.nan)[:0:-1]  # x_{n-1}, ..., x_1
    c = cell(x[:-1], np.stack([np.fmax.accumulate(fin), np.fmin.accumulate(fin)])[:, ::-1])
    low = np.append(np.fmin(np.fmin(c[0], c[1]), 0.0), 0.0)  # a NaN candidate has no finite cell
    for i in np.flatnonzero((c == -np.inf).any(axis=0)):
        low[i] = row(i).min()
    i = int(np.argmax(low == low.min()))
    j = int(np.argmin(v := row(i)))
    m = int(np.count_nonzero(~np.isnan(x)))  # NaN sorts last: its cells are NaN, never in the band
    order, flip = np.argsort(x)[:m], np.signbit(x) & (not grid.regularized)
    # binary lifting over the samples padded with +inf, whose cell is < -tol (< -B) if any is: pos stops at m
    y = np.concatenate([x[order], np.full(m, np.inf), -x[order][::-1], np.full(m, np.inf)])
    at, xi, pos = np.where(flip, 2 * m, 0) - 1, np.where(flip, -x, x), np.zeros((2, len(x)), dtype=np.intp)
    cut = -np.array([[grid.tol], [grid.bound]])
    for step in (1 << np.arange(m.bit_length()))[::-1]:  # pos[0], pos[1]: first cell < -tol, < -B
        k = pos + step
        pos = np.where(cell(xi, y[at + k]) < cut, pos, k)
    a, b = np.minimum(pos, m)
    lo, hi = np.where(flip, m - b, a), np.where(flip, m - a, b)
    r = np.flatnonzero(hi > lo)
    if len(r):
        top = np.tile(order, (m.bit_length(), 1))  # top[k, p]: max(order[p : p + 2^k])
        for k, h in enumerate(1 << np.arange(len(top) - 1), 1):
            top[k, : m - h] = np.maximum(top[k - 1, : m - h], top[k - 1, h:])
        k = np.frexp(hi[r] - lo[r])[1] - 1
        r = r[np.maximum(top[k, lo[r]], top[k, hi[r] - (1 << k)]) > r]
    return (v[j], i, i + j), r


def scan_regions(e: Evolution, horizon: float, n: int = 400, tol: float = SCAN_TOL) -> CptpGrid:
    if horizon <= 0 or n < 16:
        raise ValueError("need horizon > 0 and n >= 16")
    times = np.linspace(0.0, horizon, n)
    depolarizing = isinstance(e, Depolarizing)
    regularized = depolarizing and e.non_bijective_time(horizon) is not None
    x = np.ascontiguousarray(e.map_eigenvalues(times).T)  # (m, n): each eigenvalue's samples contiguous
    # regularized B: legs >= -tol telescope, f_i - f_k = (f_i - f_j) + (f_j - f_k); a NaN f_j reads CPTP both ways
    bound = (math.inf if np.isnan(x).any() else 2 * tol) if regularized else e.composition_bound(x, tol)

    def cell(xi, xj):  # the cells at map eigenvalue samples xi (at s) and xj (at t), component first
        with np.errstate(all="ignore"):  # overflow and 0 / 0 too: cells below the diagonal are discarded
            if regularized:
                # f(s) lambda_{t,s} = (f(s) - f(t)) / d^2: finite, of lambda's sign, at f(s) = 0 too
                return (xi[0] - xj[0]) / e.dim**2
            return e.min_choi((xj / xi).T).T  # lambda(t) / lambda(s), components last

    def rows(r0, r1, classes=True):
        value = cell(x[:, r0:r1, None], x[:, None, r0:])
        if classes:
            undefined = np.broadcast_to(np.abs(x[0, r0:r1, None]) <= 1e-9, value.shape) if regularized else ~np.isfinite(value)
            cls = np.where(undefined, np.int8(UNDEFINED), np.int8(CPTP))
        lower = np.tri(r1 - r0, k=-1, dtype=bool)  # every cell below the diagonal is in the first r1 - r0 columns
        value[:, : r1 - r0][lower] = np.nan
        np.fill_diagonal(value, 0.0)
        if not classes:
            return value
        cls[:, : r1 - r0][lower] = CPTP
        cls[value < -tol] = NONCPTP  # a negative cell is NonCPTP even if undefined
        return value, cls

    w = 1.0 + e.dim**2 * tol  # verify_composition_rules' rounding margin 1e-12 w^3 (inf if it overflows)
    fold = functools.partial(_sorted_fold, x=x[0], cell=lambda a, b: cell(a[None], b[None])) if depolarizing else None
    return CptpGrid(horizon, n, times, regularized=regularized, tol=tol, rows=rows, bound=bound + 1e-12 * w * w * w, fold=fold)


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


def _non_cptp(e: Evolution, ts: np.ndarray) -> np.ndarray:
    """Whether the infinitesimal intermediate map at each time in ts is
    non-CPTP: a negative canonical rate (for a depolarizing family, f rising)."""
    return e.rate_min(ts) < 0.0


def compute_tau_lambda(e: Evolution, horizon: float, n: int = 400) -> float:
    """Earliest time whose infinitesimal intermediate map is non-CPTP;
    math.inf if none is found inside the horizon."""
    ts = np.linspace(0.0, horizon, n)
    try:
        flags = _non_cptp(e, ts)
    except EVAL_ERRORS:  # raise only what the times taken one by one raise before the first flag
        flags = (_non_cptp(e, ts[k : k + 1])[0] for k in range(len(ts)))
    k = next((k for k, flag in enumerate(flags) if flag), None)
    if k is None:
        return math.inf
    if ts[k] == 0.0:
        return 0.0
    return bisect_boundary(lambda xs: ~_non_cptp(e, xs), float(ts[k - 1]), float(ts[k]), REFINE_XTOL)


def _after(e: Depolarizing, tau: float, horizon: float):
    """tau and f's turns from tau to horizon, with f at them."""
    ts, lam = e.turns(horizon)
    k = int(np.searchsorted(ts, tau))  # ts is sorted: ts[k:] are the times >= tau
    return np.append(tau, ts[k:]), np.append(e.f_at(tau), lam[k:, 0])


def _max_after(e: Depolarizing, tau: float, horizon: float):
    """(argmax, max) of f over _after, the first of equal ones (f(tau) wins ties); raises at a NaN or +inf."""
    ts, fv = _after(e, tau, horizon)
    i = int(np.argmax(fv))  # the first NaN, or else +inf, if any: f_at raises there
    return float(ts[i]), float(fv[i]) if math.isfinite(fv[i]) else e.f_at(float(ts[i]))


def _depolarizing_T(e: Depolarizing, horizon: float, tau: float) -> float:
    if tau >= horizon:
        return math.inf
    _, m = _max_after(e, tau, horizon)
    if m >= e.f_at(0.0) - 1e-9:
        return 0.0
    # f is non-increasing on [0, tau]; T solves f(T) = m there
    g = lambda x: e.f_at(x) - m
    return tau if g(tau) >= 0 else bisect_root(g, 0.0, tau, xtol=1e-7)


def _condition_b(e: Evolution, T: float, t_grid: np.ndarray, tol: float) -> bool:
    """V_{t,T} CPTP for every grid t >= T."""
    return not np.any(e.intermediate_min_choi(T, t_grid[t_grid >= T]) < -tol)


def _b_fails(e: Evolution, Ts: np.ndarray, t_grid: np.ndarray, lam, tol: float) -> np.ndarray:
    """Whether condition (B) fails at each T in Ts, as one (len(Ts) x n) grid of
    ratios to lam on t_grid; raises where a lambda(T) raises or is singular."""
    at = e.map_eigenvalues(Ts)[:, None]
    singular = np.min(np.abs(at), axis=(1, 2)) <= e.singular_tol
    if np.any(singular):
        raise e.singular(float(Ts[np.argmax(singular)]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ((e.min_choi(lam / at) < -tol) & (t_grid >= Ts[:, None])).any(axis=1)


def _first_failing(e: Evolution, cs: np.ndarray, t_grid: np.ndarray, lam, tol: float) -> Optional[int]:
    """Index of the first T in cs where condition (B) fails, or None: _b_fails
    on blocks of 2, 4, 8, ... candidates until one raises; then one at a time."""
    i, rows = 0, 2
    while i < len(cs):
        try:
            hit = np.flatnonzero(_b_fails(e, cs[i : i + rows], t_grid, lam, tol))
        except EVAL_ERRORS:
            break
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
        cs = np.linspace(0.0, cap, 65)[1:]
        hi = float(cs[_first_failing(e, cs, t_grid, lam, tol)])
        t_ab = bisect_boundary(lambda Ts: ~_b_fails(e, Ts, t_grid, lam, tol), hi - cap / 64.0, hi, REFINE_XTOL)
    if t_ab > 0 and e.is_unitary_at(max(t_ab - REFINE_XTOL, 0.0)):
        # condition (C): walk back to the latest non-unitary time,
        # skipping the refinement-width neighborhood of the boundary
        for T in np.linspace(t_ab, 0.0, 65):
            if 0 < T < t_ab - REFINE_XTOL and not e.is_unitary_at(float(T)):
                return bisect_boundary(lambda xs: ~e.is_unitary_at(xs), float(T), t_ab, REFINE_XTOL)
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
        # f is monotone between its turns: the first crossing of f(T) after
        # tau is in the first interval from tau whose end reaches f(T)
        target = e.f_at(T)
        ts, fv = _after(e, tau, horizon)
        idx = np.flatnonzero(fv >= target)
        if len(idx):
            i = int(idx[0])
            return tau if i == 0 else bisect_root(lambda x: e.f_at(x) - target, float(ts[i - 1]), float(ts[i]), 1e-6)
        # f only touches f(T) tangentially at its revival peak
        tp, fp = _max_after(e, tau, horizon)
        return tp if fp >= target - 1e-6 else math.inf

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
    return ShiftedDepolarizing(e, T) if isinstance(e, Depolarizing) else ShiftedPauli(e, T)


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

    Only band rows are multiplied (grid._fold finds them, for a depolarizing
    grid from its sorted samples), by this theorem: in a grid scanned from
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
