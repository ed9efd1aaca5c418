"""The refinement searches as they evaluate their function: one probe at a
time, on floats.  The tests hold the array-round searches of
pnmcore.numerics to these: the same probes, bounds and tie rules, so the
same float."""

import numpy as np


def bisect_boundary(pred, lo, hi, xtol=1e-4):
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_root(f, lo, hi, xtol=1e-6):
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


def ternary_search(fn, lo, hi, keep_left, steps, xtol=0.0):
    for _ in range(steps):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if keep_left(fn(a), fn(b)):
            hi = b
        else:
            lo = a
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


def refine_min_abs(f, lo, hi):
    """Ternary search of the minimum of |f|, as find_first_zero's was."""
    for _ in range(80):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if abs(float(f(a))) < abs(float(f(b))):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


def rate_roots(e, ts, g, steps=12):
    """numerics.rate_roots as it bisected: one rates call per step of each
    column's roots; a root next to a sample whose rate is 0 or NaN is that sample."""
    roots = []
    for i in range(g.shape[-1]):
        k = np.flatnonzero((g[:-1, i] < 0) != (g[1:, i] < 0))
        flat = ~((g[:, i] < 0) | (g[:, i] > 0))
        lo, hi, neg = ts[k], ts[k + 1], g[k, i] < 0
        for _ in range(steps if len(k) else 0):
            mid = 0.5 * (lo + hi)
            left = (e.rates(mid, i) < 0) == neg
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        roots.append(np.where(flat[k], ts[k], np.where(flat[k + 1], ts[k + 1], 0.5 * (lo + hi))))
    return np.concatenate(roots)
