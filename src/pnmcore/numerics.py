"""Quadrature (adaptive Simpson, and panel Gauss-Legendre cumulative
integrals for arrays of times) and bisection refinement."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureFailure

PANEL_WIDTH = 0.125  # cumulative integrals use panels [k w, (k + 1) w]
PANELS_PER_CHUNK = 8
PANEL_TOL = 1e-13  # per panel; a piece of width w gets w / PANEL_WIDTH of it
GL_ORDER = 10
MAX_LEVEL = 20


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


def bisect_boundary(pred, lo: float, hi: float, xtol: float = 1e-4) -> float:
    """Boundary of a predicate that is True at lo and False at hi.

    Returns a point within xtol of the transition.
    """
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-6) -> float:
    """Root of a continuous f with f(lo) and f(hi) of opposite sign."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


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
    so the value at t never depends on earlier queries.  Non-finite values
    of fn count as 0 (a removable singularity such as sin(1/t) at t = 0)."""

    def __init__(self, fn):
        self.fn = fn
        self._chunks: list = []  # per chunk: (left edges, integrals) of its pieces
        self._edges = self._prefix = np.zeros(0)  # prefix: integral from 0 to each edge

    def _gauss(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        x, weights = _gauss_legendre()
        nodes = a[:, None] + w[:, None] * x
        v = np.broadcast_to(np.asarray(self.fn(nodes), dtype=float), nodes.shape)
        return w * (np.where(np.isfinite(v), v, 0.0) @ weights)

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
