"""Correctness checks for one op's output, against references that are
computed here from the family parameters, never from pnmcore.

`check(op, fh)` reads one op's output file and returns a list of `Problem`s;
an op passes when the list is empty.  A problem is `hard`, and makes the run
incorrect, when the output is malformed or contradicts a reference:
published values, closed-form scan cells, the ordering T <= tau <= t_star,
or a fine-grid tau or Markovian-or-not verdict.  Only two kinds of miss are
soft, counted as failed ops but not making the run incorrect:
- tau within SOFT_STEPS analysis grid steps of its fine-grid reference,
  beyond the one-step resolution floor of a sampled scan;
- any tau or verdict miss on a family whose first non-CPTP interval is
  narrower than any grid can resolve: sin(1/t) rates, whose sign flips
  accumulate at t = 0, and depolarizing decays with a narrow Gaussian bump.

Scan grids are streamed, line by line or in chunks, so the checker adds
little to the peak RSS of the process whose export it checks.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

FINE_POINTS = 200_001
SCAN_TOL = 1e-10  # pnmcore's default scan tolerance on the smallest Choi eigenvalue
CELL_SAMPLES = 2000
SOFT_STEPS = 4

# tests/test_acceptance.py criteria 1 and 4: (value, tolerance)
PUBLISHED = {
    "paper-example": {"T": (0.275, 0.005), "tau": (0.495, 0.005), "t_star": (1.040, 0.005), "delta": (0.164, 0.005)},
    "appendix-f": {"T": (0.125, 0.001), "tau": (0.5, 0.002), "t_star": (1.5, 0.002), "delta": (0.64, 0.002)},
}


@dataclass(frozen=True)
class Problem:
    message: str
    hard: bool = True


# --- reference functions, rebuilt from the generator's parameters ----------


def depolarizing_f(ref: dict):
    p = ref["params"]
    fam = ref["family"]
    if fam == "paper-example":
        return lambda t: (1 - 3 * t + 2 * t**2 + 2 * t**3) / (1 + t**2 + t**3 + 3 * t**5)
    if fam == "appendix-f":
        return lambda t: (2 * t - 1) ** 2 / (2 * t**3 - t + 1)
    if fam == "damped":
        return lambda t: np.exp(-p["a"] * t) * np.cos(p["b"] * t)
    if fam == "revival":
        return lambda t: np.exp(-p["a"] * t) * (1 - p["c"] + p["c"] * np.cos(p["b"] * t))
    if fam == "bump":
        return lambda t: np.exp(-p["a"] * t) + p["amp"] * np.exp(-(((t - p["t1"]) / p["w"]) ** 2))
    if fam == "markov":
        return lambda t: 0.5 * np.exp(-p["a"] * t) + 0.5 * np.exp(-p["b"] * t)
    raise KeyError(fam)


def _pauli_rates_min(ref: dict, t: np.ndarray) -> np.ndarray:
    """Smallest master-equation rate min_i gamma_i(t) on a grid."""
    p = ref["params"]
    kind = ref["kind"]
    with np.errstate(all="ignore"):
        if kind == "quasiEternal":
            # rates (alpha/2){1, 1, -tanh(t - t_u - t0)} after a unitary prefix
            shifted = t - p["t_unitary"]
            g = np.minimum(p["alpha"] / 2, -p["alpha"] / 2 * np.tanh(shifted - p["t0"]))
            return np.where(shifted < 0, 0.0, g)
        if kind == "pauliRates" and ref["family"] == "cos":
            return np.minimum(p["a"], p["b"] + p["c"] * np.cos(p["w"] * t))
        if kind == "pauliRates":
            gz = -p["c"] * np.sin(1 / t) * np.tanh(t)
            return np.minimum(p["a"], np.where(np.isfinite(gz), gz, 0.0))
        # pauliProbs: gamma from the log-derivatives D_i = -(1/2) d ln(lambda_i)/dt
        # of the map eigenvalues, D_x = gamma_y + gamma_z and cyclically
        q, k, r, w = p["q"], p["k"], p["r"], p["w"]
        pxy, dpxy = q * (1 - np.exp(-k * t)), q * k * np.exp(-k * t)
        pz, dpz = r * np.sin(w * t) ** 2, r * w * np.sin(2 * w * t)
        lx = ly = 1 - 2 * (pxy + pz)
        lz = 1 - 4 * pxy
        dx = dy = (dpxy + dpz) / lx
        dz = 2 * dpxy / lz
        gx = gy = (dy + dz - dx) / 2
        gz = (dx + dy - dz) / 2
        return np.minimum(np.minimum(gx, gy), gz)


def reference_tau(ref: dict, horizon: float) -> float:
    """First fine-grid time whose infinitesimal map is non-CPTP: f' > 0 for
    depolarizing families, a negative rate for Pauli ones; inf if none."""
    t = np.linspace(0.0, horizon, FINE_POINTS)
    if ref["kind"] == "depolarizing":
        bad = np.flatnonzero(np.diff(depolarizing_f(ref)(t)) > 0)
    else:
        bad = np.flatnonzero(_pauli_rates_min(ref, t) < 0)
    return float(t[bad[0]]) if len(bad) else math.inf


# --- analyze ---------------------------------------------------------------


def known_limit(ref: dict) -> bool:
    """Families whose first non-CPTP interval no analysis grid resolves."""
    return ref.get("family") in ("sin", "bump")


def _time(v):
    # reports write a time that is never reached inside the horizon as null
    return math.inf if v is None else float(v)


def check_analyze(op, doc: dict) -> list:
    out = []
    cfg = op.config
    h, n = cfg["horizon"], cfg["grid_points"]
    times = doc["times"]
    T, tau, t_star = (_time(times[k]) for k in ("T", "tau", "t_star"))
    finite = [(name, v) for name, v in (("T", T), ("tau", tau), ("t_star", t_star)) if math.isfinite(v)]
    for (n1, v1), (n2, v2) in zip(finite, finite[1:]):
        if v1 > v2 + 1e-9:
            out.append(Problem(f"ordering: {n1}={v1:.6g} > {n2}={v2:.6g}"))

    published = PUBLISHED.get(op.ref.get("family"))
    if published:
        got = {"T": T, "tau": tau, "t_star": t_star, "delta": doc.get("measures", {}).get("delta", math.nan)}
        for name, (want, tol) in published.items():
            if not abs(got[name] - want) <= tol:
                out.append(Problem(f"{name}={got[name]:.6g}, published {want} +/- {tol}"))
        return out

    step = h / (n - 1)
    tol = step + h / (FINE_POINTS - 1)
    ref_tau = reference_tau(op.ref, h)
    markovian = doc["classification"] == "Markovian"
    soft = known_limit(op.ref)
    if markovian:
        # the first non-CPTP time may sit in the last grid step
        if ref_tau <= h - tol:
            out.append(Problem(f"Markovian, but fine-grid reference tau={ref_tau:.6g}", hard=not soft))
    elif not abs(tau - ref_tau) <= tol:
        miss = abs(tau - min(ref_tau, h))
        soft = soft or miss <= SOFT_STEPS * step + tol
        out.append(
            Problem(f"tau={tau:.6g}, fine-grid reference {ref_tau:.6g} (grid step {step:.3g})", hard=not soft)
        )
    return out


# --- scan ------------------------------------------------------------------


def reference_cells(ref: dict, horizon: float, s: np.ndarray, t: np.ndarray):
    """(value, regularized) of the smallest intermediate-map Choi eigenvalue
    between times s <= t, from the closed forms of each family."""
    p = ref["params"]
    with np.errstate(all="ignore"):
        if ref["kind"] == "depolarizing":
            f = depolarizing_f(ref)
            d2 = ref["dim"] ** 2
            fine = f(np.linspace(0.0, horizon, FINE_POINTS))
            regularized = bool(np.any(np.sign(fine[1:]) != np.sign(fine[:-1])))
            if regularized:
                return (f(s) - f(t)) / d2, True
            return (1 - f(t) / f(s)) / d2, False
        if ref["kind"] == "quasiEternal":
            a, t0 = p["alpha"], p["t0"]
            dt = t - s
            pxy = (1 - np.exp(-2 * a * dt)) / 4
            ratio = (np.cosh(t - t0) / np.cosh(s - t0)) ** a
            pz = (1 + np.exp(-2 * a * dt) - 2 * np.exp(-a * dt) * ratio) / 4
            p0 = 1 - 2 * pxy - pz
            return np.minimum(np.minimum(p0, pxy), pz), False
        # pauliRates with rates {a, a, b + c cos(w t)}: exact integrals
        a, b, c, w = p["a"], p["b"], p["c"], p["w"]

        def lam(x):
            ix, iz = a * x, b * x + c * np.sin(w * x) / w
            return np.stack([np.exp(-2 * (ix + iz)), np.exp(-2 * (ix + iz)), np.exp(-4 * ix)])

        lx, ly, lz = lam(t) / lam(s)
        probs = np.stack(
            [(1 + lx + ly + lz), (1 + lx - ly - lz), (1 - lx + ly - lz), (1 - lx - ly + lz)]
        ) / 4
        return probs.min(axis=0), False


def _check_cells(op, s, t, value, cls, regularized_flag) -> list:
    out = []
    if np.any(s > t):
        out.append(Problem("cell with s > t"))
    want, regularized = reference_cells(op.ref, op.config["horizon"], s, t)
    if regularized_flag is not None and regularized_flag != regularized:
        out.append(Problem(f"regularized={regularized_flag}, reference {regularized}"))
    tol = 1e-9 if op.ref["kind"] != "pauliRates" else 1e-6
    bad = ~(np.abs(value - want) <= tol + 1e-9 * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        out.append(Problem(f"cell ({s[i]:.6g}, {t[i]:.6g}) = {value[i]!r}, reference {want[i]!r}"))
    noncptp = value < -SCAN_TOL
    if np.any(noncptp != (cls == "NonCPTP")):
        out.append(Problem("cell class disagrees with the sign of its value"))
    return out


_CELL = re.compile(r"\{[^{}]*\}")  # a cell object; the document's own braces enclose the cells
_HEAD = {"n": re.compile(r'"n"\s*:\s*(\d+)'), "regularized": re.compile(r'"regularized"\s*:\s*(true|false)')}
CHUNK = 1 << 20


def _json_grid(fh, every: int) -> tuple:
    """(top-level n and regularized, cell count, every `every`-th cell) of a
    JSON grid, read in chunks so that no copy of the whole grid is held."""
    head, count, picked, carry = {}, 0, [], ""

    def search_head(gap):
        if '"' in gap:
            for key, pattern in _HEAD.items():
                m = pattern.search(gap)
                if m:
                    head[key] = m.group(1)

    for chunk in iter(lambda: fh.read(CHUNK), ""):
        buf, end = carry + chunk, 0
        for m in _CELL.finditer(buf):
            search_head(buf[end : m.start()])
            if count % every == 0:
                picked.append(json.loads(m.group()))
            count += 1
            end = m.end()
        carry = buf[end:]
    search_head(carry)
    return head, count, picked


def check_scan(op, fh) -> list:
    n = op.config["grid_points"]
    rows = n * (n + 1) // 2
    every = max(1, rows // CELL_SAMPLES)
    if op.fmt == "csv":
        if fh.readline().rstrip("\n") != "s,t,value,class":
            return [Problem("missing CSV header")]
        count, picked = 0, []
        for line in fh:
            if count % every == 0:
                picked.append(line.rstrip("\n").split(","))
            count += 1
        if count != rows:
            return [Problem(f"{count} rows, want n(n+1)/2 = {rows}")]
        s, t, v = (np.array([float(r[k]) for r in picked]) for k in range(3))
        cls = np.array([r[3] for r in picked])
        return _check_cells(op, s, t, v, cls, None)
    head, count, picked = _json_grid(fh, every)
    if head.keys() != _HEAD.keys():
        return [Problem('missing "n" or "regularized"')]
    if int(head["n"]) != n or count != rows:
        return [Problem(f"{count} cells, want n(n+1)/2 = {rows}")]
    s, t = (np.array([c[k] for c in picked], dtype=float) for k in ("s", "t"))
    v = np.array([math.nan if c["value"] is None else c["value"] for c in picked], dtype=float)
    cls = np.array([c["class"] for c in picked])
    return _check_cells(op, s, t, v, cls, head["regularized"] == "true")


def check(op, fh) -> list:
    """Problems with one op's output, read from the text file `fh`; empty
    when it passes."""
    try:
        if op.command == "scan":
            return check_scan(op, fh)
        return check_analyze(op, json.load(fh))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [Problem(f"malformed output: {type(exc).__name__}: {exc}")]
