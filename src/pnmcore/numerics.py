"""Quadrature (adaptive Simpson, and panel Gauss-Legendre cumulative
integrals for arrays of times), bisection and ternary-search refinement
in vectorized rounds, and the sign changes of rates on a grid."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import PnmError, QuadratureFailure

PANEL_WIDTH = 0.125  # cumulative integrals use panels [k w, (k + 1) w]
PANELS_PER_CHUNK = 8
PANEL_TOL = 1e-13  # per panel; a piece of width w gets w / PANEL_WIDTH of it
GL_ORDER = 10
MAX_LEVEL = 20
EVAL_ERRORS = (PnmError, ArithmeticError, ValueError)  # what evaluating a family can raise
DETECT_POINTS = 16384  # rate signs from derivatives: sign changes closer than horizon / DETECT_POINTS can be missed
RATE_POINTS = 32768  # rate expressions are cheap to sample: a finer grid for sin(1/t)-like rates
ROOT_STEPS = 12  # bisection steps of a rate sign change: 2**-12 of a grid step
ROUND_PROBES = 1024  # probes a round of rate roots may take: a rates call on fewer costs about its overhead


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-9, max_depth: int = 40) -> float:
    """Adaptive Simpson integration of f on [a, b] to absolute tolerance tol.

    Intervals that still disagree at max_depth contribute their current
    estimate; this keeps bounded integrands with unresolvably fast
    oscillation (rather than divergence) integrable.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)
    if not math.isfinite(result):
        raise QuadratureFailure(f"integral of {f} on [{a}, {b}] is not finite")
    return result


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


# Steps a round looks ahead: it lists the 2^k - 1 probes of a bisection's next
# k steps (2^(k+1) - 2 for a ternary search) with a few numpy calls a step and
# evaluates them in one array call, about as fast as one probe.  On depolarizing
# refinements k = 5 and 6 tied, 4 was 5% slower, 7 10% and 8 30%.
ROUND_STEPS = 6


# A step on [lo, hi], floats or arrays: its probes, and the brackets it keeps on True and on False.
def _halves(lo, hi):
    mid = 0.5 * (lo + hi)
    return (mid,), ((mid, hi), (lo, mid))


def _thirds(lo, hi):
    third = (hi - lo) / 3.0
    a, b = lo + third, hi - third
    return (a, b), ((lo, b), (a, hi))


class _Rounds:
    """fn at the probes of a search whose steps are `split`.  A probe x not yet
    evaluated, in the bracket [lo, hi] the search has reached, starts a round:
    one array call at x and every probe of the next ROUND_STEPS steps, on which
    the search replays its own steps, bounds and tie rules, to the float it
    would get one probe at a time.  If the call raises one of EVAL_ERRORS or
    gives a non-finite value, maybe off the search's path, x is evaluated
    alone, so that errors surface where, and as, they would without rounds."""

    def __init__(self, fn, split):
        self.fn, self.split, self.values = fn, split, {}

    def __call__(self, x: float, lo: float, hi: float):
        if x not in self.values:
            points, lo, hi = [np.array([x])], np.array([lo]), np.array([hi])
            for _ in range(ROUND_STEPS):
                probes, ((lo1, hi1), (lo2, hi2)) = self.split(lo, hi)
                points += probes
                lo, hi = np.concatenate((lo1, lo2)), np.concatenate((hi1, hi2))
            points = np.concatenate(points)
            try:
                values = np.asarray(self.fn(points))
            except EVAL_ERRORS:
                values = np.array([np.nan])
            if np.all(np.isfinite(values)):
                self.values.update(zip(points.tolist(), values.tolist()))
            else:
                self.values[x] = np.asarray(self.fn(np.array([x]))).tolist()[0]
        return self.values[x]


def bisect_boundary(pred, lo: float, hi: float, xtol: float = 1e-4) -> float:
    """Within xtol of where pred, taking an array of points, turns from True at lo to False at hi."""
    at = _Rounds(pred, _halves)
    while hi - lo > xtol:
        (mid,), (true, false) = _halves(lo, hi)
        lo, hi = true if at(mid, lo, hi) else false
    return 0.5 * (lo + hi)


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-6) -> float:
    """Root of a continuous f, taking an array of points, of opposite signs at lo and hi."""
    at = _Rounds(f, _halves)
    flo = at(lo, lo, hi)
    if flo == 0.0:
        return lo
    while hi - lo > xtol:
        (mid,), _ = _halves(lo, hi)
        fmid = at(mid, lo, hi)
        if fmid == 0.0:
            return mid
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def ternary_search(fn, lo: float, hi: float, keep_left, steps: int, xtol: float = 0.0) -> float:
    """Ternary search of fn, taking an array of points, on [lo, hi], keeping [lo, b] of probes a < b
    if keep_left(fn(a), fn(b)), else [a, hi]: the middle after `steps` steps or once narrower than xtol."""
    at = _Rounds(fn, _thirds)
    for _ in range(steps):
        (a, b), (left, right) = _thirds(lo, hi)
        lo, hi = left if keep_left(at(a, lo, hi), at(b, lo, hi)) else right
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


def rate_roots(rates, ts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sign changes of each column of g = rates(ts), each bisected ROOT_STEPS times with
    rates(points, column) in rounds: one call at every probe of all its roots' next steps,
    ROUND_STEPS of them or fewer where that takes over ROUND_PROBES probes, replayed (the
    probes are the step-by-step mids).  A NaN rate counts as non-negative; a rate of 0 or
    NaN next to a negative one is a root at its sample (an exact turn, as at a kink of |f|)."""
    roots = []
    for i in range(g.shape[-1]):
        k = np.flatnonzero((g[:-1, i] < 0) != (g[1:, i] < 0))
        flat = ~((g[:, i] < 0) | (g[:, i] > 0))
        lo, hi, neg, cols = ts[k], ts[k + 1], g[k, i] < 0, np.arange(len(k))
        depth = max(1, min(ROUND_STEPS, (ROUND_PROBES // max(len(k), 1) + 1).bit_length() - 1))  # (2^depth - 1) len(k) probes
        for done in range(0, ROOT_STEPS if len(k) else 0, depth):
            steps = min(depth, ROOT_STEPS - done)
            mids, a, b = [], lo[None], hi[None]
            for _ in range(steps):  # level l has 2^l brackets: node j's (mid, b) is node j of the next, (a, mid) node j + 2^l
                mids.append(0.5 * (a + b))
                a, b = np.concatenate((mids[-1], a)), np.concatenate((b, mids[-1]))
            mids = np.concatenate(mids)
            kept = (rates(mids, i) < 0) == neg
            node = np.zeros(len(k), dtype=np.intp)
            for level in range(steps):
                row = (1 << level) - 1 + node
                mid, left = mids[row, cols], kept[row, cols]
                lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
                node = np.where(left, node, node + (1 << level))
        roots.append(np.where(flat[k], ts[k], np.where(flat[k + 1], ts[k + 1], 0.5 * (lo + hi))))
    return np.concatenate(roots)


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss  # on first use: it slows the import

    x, w = leggauss(GL_ORDER)
    return (x + 1.0) / 2.0, w / 2.0


class CumulativeIntegral:
    """t -> integral of fn from 0 to t, for a float or an array of t.

    Fixed panels anchored at 0 are halved, one level at a time across a
    chunk of panels, wherever a Gauss-Legendre estimate and the sum over its
    halves disagree by more than their share of PANEL_TOL, at most MAX_LEVEL
    times.  The pieces and prefix sums are cached one fixed chunk at a time,
    so the value at t never depends on earlier queries or on the other times asked for with it.
    Non-finite values of fn count as 0 (a removable singularity such as sin(1/t) at t = 0)."""

    def __init__(self, fn):
        self.fn = fn
        self._chunks: list = []  # per chunk: (left edges, integrals) of its pieces
        self._edges = self._prefix = np.zeros(0)  # prefix: integral from 0 to each edge

    def _gauss(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        x, weights = _gauss_legendre()
        nodes = a[:, None] + w[:, None] * x
        v = np.broadcast_to(np.asarray(self.fn(nodes), dtype=float), nodes.shape)
        return w * np.einsum("ij,j->i", np.where(np.isfinite(v), v, 0.0), weights)  # fixed order, unlike a BLAS @

    def _chunk(self, c: int):
        a = (c * PANELS_PER_CHUNK + np.arange(PANELS_PER_CHUNK)) * PANEL_WIDTH
        w = np.full(PANELS_PER_CHUNK, PANEL_WIDTH)
        whole, edges, values = self._gauss(a, w), [], []
        for level in range(MAX_LEVEL + 1):
            half = w / 2.0
            left, right = self._gauss(a, half), self._gauss(a + half, half)
            done = np.abs(left + right - whole) <= PANEL_TOL * w / PANEL_WIDTH
            done |= level == MAX_LEVEL
            edges += [a[done], (a + half)[done]]
            values += [left[done], right[done]]
            a, w = np.concatenate([a[~done], (a + half)[~done]]), np.tile(half[~done], 2)
            whole = np.concatenate([left[~done], right[~done]])
            if not a.size:
                break
        order = np.argsort(np.concatenate(edges))
        return np.concatenate(edges)[order], np.concatenate(values)[order]

    def __call__(self, ts):
        ts = np.asarray(ts, dtype=float)
        if not np.all((ts >= 0) & np.isfinite(ts)):
            raise ValueError("rates are integrated from 0, over finite times")
        need = int(np.max(ts, initial=0.0) // (PANEL_WIDTH * PANELS_PER_CHUNK)) + 1
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total raises below
            if need > len(self._chunks):
                self._chunks += [self._chunk(c) for c in range(len(self._chunks), need)]
                self._edges = np.concatenate([c[0] for c in self._chunks])
                self._prefix = np.cumsum(np.concatenate([[0.0]] + [c[1] for c in self._chunks]))[:-1]
            j = np.searchsorted(self._edges, ts.ravel(), side="right") - 1
            total = self._prefix[j] + self._gauss(self._edges[j], ts.ravel() - self._edges[j])
        if not np.all(np.isfinite(total)):
            raise QuadratureFailure(f"integral of {self.fn} is not finite")
        return total.reshape(ts.shape)
