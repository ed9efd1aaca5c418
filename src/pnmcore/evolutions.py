"""Dynamical-map families: depolarizing, Pauli (probability- and
rate-driven), quasi-eternal, and the cores shifted out of Pauli families.

Every family acts diagonally on a fixed operator basis: it gives its map
eigenvalues, f(t) or lambda_x, lambda_y, lambda_z, for whole arrays of
times, and a closed-form smallest Choi eigenvalue of the maps with given
eigenvalues.  The analysis runs on those; the dense maps built from the
same eigenvalues serve the tests as an oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    CPTPViolation,
    NonFiniteResult,
    SingularMap,
    UndefinedIntermediateMap,
)
from .exprparse import ScalarFn
from .numerics import CumulativeIntegral, bisect_root

F_ZERO_TOL = 1e-12


def t0_alpha(alpha: float) -> float:
    """Smallest admissible onset time of the quasi-eternal model:
    max{0, log(2^(1/alpha) - 1) / 2}; zero for alpha >= 1."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha >= 1:
        return 0.0
    if 1.0 / alpha > 1023:  # 2^(1/alpha) overflows: log(e^x - 1) = x + log(1 - e^-x), x = ln 2 / alpha
        x = math.log(2.0) / alpha
        return (x + math.log(-math.expm1(-x))) / 2.0
    return max(0.0, math.log(2.0 ** (1.0 / alpha) - 1.0) / 2.0)


def quasi_eternal_probs(alpha: float, t0: float, s: float, t: float):
    """Pauli probabilities (p_0, p_x, p_y, p_z) of the intermediate map
    between s and t; s = 0 gives the dynamical map. p_z may be negative."""
    dt = t - s
    pxy = (1.0 - math.exp(-2.0 * alpha * dt)) / 4.0
    # (cosh(t - t0) / cosh(s - t0))^alpha, in log space to survive large arguments
    cr = math.exp(alpha * (_log_cosh(t - t0) - _log_cosh(s - t0)))
    pz = (1.0 + math.exp(-2.0 * alpha * dt) - 2.0 * math.exp(-alpha * dt) * cr) / 4.0
    p0 = 1.0 - 2.0 * pxy - pz
    return (p0, pxy, pxy, pz)


def pauli_probs_from_eigs(lx: float, ly: float, lz: float):
    p0 = (1.0 + lx + ly + lz) / 4.0
    px = (1.0 + lx - ly - lz) / 4.0
    py = (1.0 - lx + ly - lz) / 4.0
    pz = (1.0 - lx - ly + lz) / 4.0
    return (p0, px, py, pz)


def pauli_eigs_from_probs(p0: float, px: float, py: float, pz: float):
    lx = p0 + px - py - pz
    ly = p0 - px + py - pz
    lz = p0 - px - py + pz
    return (lx, ly, lz)


def pauli_probs(lam):
    """Choi spectrum (p_0, p_x, p_y, p_z) of Pauli maps with eigenvalues lam[..., k]."""
    return pauli_probs_from_eigs(*np.moveaxis(np.asarray(lam, dtype=float), -1, 0))


def pauli_min_prob(lam):
    """Smallest Choi eigenvalue of Pauli maps with eigenvalues lam[..., k]."""
    p0, px, py, pz = pauli_probs(lam)
    return np.minimum(np.minimum(p0, px), np.minimum(py, pz))


class Evolution:
    """A one-parameter family of quantum maps acting diagonally on a fixed
    operator basis.  Subclasses give `map_eigenvalues(ts)` with shape (..., m)
    for a float or an array of times; for maps with eigenvalues lam, the
    smallest Choi eigenvalue `min_choi(lam)` and the dense map
    `superoperator(lam)`; `singular(s)`, the error for V_{t,s} where
    lambda(s) vanishes; and `is_unitary_at(t)`.  V_{t,s} has
    lambda(t) / lambda(s)."""

    dim: int = 2
    singular_tol = -math.inf  # |lambda(s)| at or below it: V_{t,s} is not defined

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        """log |lambda(ts)|, which families with exponential eigenvalues
        give in closed form, so it does not underflow."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.map_eigenvalues(ts)))

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        """map_eigenvalues, raising wherever dynamical_map would."""
        return self.map_eigenvalues(ts)

    def intermediate_eigenvalues(self, s, t) -> np.ndarray:
        """lambda(t) / lambda(s), the eigenvalues of V_{t,s}, broadcast over s and t."""
        if not (np.all(0 <= np.asarray(s)) and np.all(np.asarray(s) <= t)):
            raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
        at_s = self.map_eigenvalues(s)
        singular = np.min(np.abs(at_s), axis=-1) <= self.singular_tol
        if np.any(singular):
            raise self.singular(float(np.ravel(s)[np.argmax(singular)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.map_eigenvalues(t) / at_s

    def dynamical_map(self, t: float) -> linalg.Superoperator:
        return self.superoperator(self.dynamical_eigenvalues(t))

    def intermediate_map(self, s: float, t: float) -> linalg.Superoperator:
        """V_{t,s} with dynamical_map(t) = V_{t,s} ∘ dynamical_map(s)."""
        return self.superoperator(self.intermediate_eigenvalues(s, t))

    def intermediate_min_choi(self, s, t):
        """Smallest Choi eigenvalue of V_{t,s}, broadcast over s and t."""
        return self.min_choi(self.intermediate_eigenvalues(s, t))

    def rate_min(self, ts) -> Optional[np.ndarray]:
        """min_i gamma_i(ts) for rate-driven families, else None."""
        g = self.rates(ts)
        return None if g is None else np.min(g, axis=-1)

    def rates(self, ts, i: Optional[int] = None) -> Optional[np.ndarray]:
        """gamma(ts), shape (..., 3), or gamma_i(ts) alone, shape ts.shape,
        for families given by rate expressions, else None."""
        return None

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        """First time in (0, horizon] where the dynamical map loses its
        inverse, if any."""
        return None

    def composition_bound(self, lam, tol: float) -> float:
        """analysis.verify_composition_rules' B for a scan of the map eigenvalues lam."""
        return math.inf


@dataclass(frozen=True)
class Depolarizing(Evolution):
    """rho -> f(t) rho + (1 - f(t)) Tr[rho] 1/d, the one map eigenvalue f(t)."""

    f: ScalarFn  # or any function of a float or an array of times, as a core's f(t + T) / f(T)
    dim: int = 2
    singular_tol = F_ZERO_TOL

    def f_at(self, t: float) -> float:
        v = float(self.f(t))
        if not math.isfinite(v):
            raise NonFiniteResult(f"f({t}) is not finite")
        return v

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.asarray(self.f(ts), dtype=float)[..., None]

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        lam = self.map_eigenvalues(ts)
        bad = ~np.isfinite(lam[..., 0])
        if np.any(bad):
            raise NonFiniteResult(f"f({np.broadcast_to(ts, bad.shape)[bad].flat[0]}) is not finite")
        return lam

    def min_choi(self, lam):
        return (1.0 - lam[..., 0]) / self.dim**2

    def composition_bound(self, lam, tol: float) -> float:
        """tol (2 + d^2 tol) if every f sample > 0: a cell is (1 - g) / d^2, g =
        f(t) / f(s) = g_ij g_jk, and legs >= -tol have 0 <= g <= 1 + d^2 tol.
        A sample f <= 0 (that non_bijective_time missed) lets two legs with g
        < 0 read CPTP and compose to any g, so B is inf."""
        return tol * (2 + self.dim**2 * tol) if np.all(lam > 0) else math.inf

    def superoperator(self, lam) -> linalg.Superoperator:
        return linalg.depolarizing_superoperator(self.dim, lam[0])

    def singular(self, s: float) -> Exception:
        return UndefinedIntermediateMap(f"f({s}) = 0: the dynamical map is non-invertible at s={s}")

    def is_unitary_at(self, t: float) -> bool:
        return abs(self.f_at(t) - 1.0) <= 1e-9

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        return find_first_zero(self.f, horizon)


class PauliDiagonal(Evolution):
    """A qubit family sigma_k -> lambda_k(t) sigma_k, m = 3: lambda_x,
    lambda_y, lambda_z."""

    def min_choi(self, lam):
        # the Choi eigenvalues of a Pauli map are its four probabilities
        return pauli_min_prob(lam)

    def composition_bound(self, lam, tol: float) -> float:
        """2 tol (1 + 3 tol): a Pauli map's Choi spectrum is its probabilities
        p_a, a in {0, x, y, z}, summing to 1; a composition's is the XOR
        convolution sum_a p_a q_{a^c} of its legs'.  With p_a, q_b >= -tol,
        each leg's positive ones sum to <= 1 + 3 tol and a term is negative by
        <= tol q_b or tol p_a.  A shifted core's eigenvalues are ratios too."""
        return 2 * tol * (1 + 3 * tol)

    def superoperator(self, lam) -> linalg.Superoperator:
        return linalg.pauli_superoperator(pauli_probs(lam))

    def singular(self, s: float) -> Exception:
        return SingularMap(f"Pauli map not invertible at s={s}")

    def is_unitary_at(self, t: float) -> bool:
        # a Pauli map is unitary iff it is conjugation by a single sigma_i
        return bool(max(pauli_probs(self.map_eigenvalues(t))) >= 1.0 - 1e-9)


@dataclass(frozen=True)
class PauliProbs(PauliDiagonal):
    """Qubit Pauli evolution given by probability functions p_x, p_y, p_z."""

    p_x: ScalarFn
    p_y: ScalarFn
    p_z: ScalarFn
    dim: int = 2
    singular_tol = 1e-12

    def probs_at(self, ts):
        """(p_0, p_x, p_y, p_z) at a float or an array of times."""
        ts = np.asarray(ts, dtype=float)
        fns = (self.p_x, self.p_y, self.p_z)
        px, py, pz = (np.broadcast_to(np.asarray(p(ts), dtype=float), ts.shape) for p in fns)
        bad = ~np.isfinite(px + py + pz)
        if np.any(bad):
            raise NonFiniteResult(f"Pauli probabilities not finite at t={ts[bad].flat[0]}")
        return (1.0 - px - py - pz, px, py, pz)

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.stack(pauli_eigs_from_probs(*self.probs_at(ts)), axis=-1)

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        bad = np.min(self.probs_at(ts), axis=0) < -1e-9
        if np.any(bad):
            raise CPTPViolation(f"Pauli probabilities negative at t={np.asarray(ts)[bad].flat[0]}")
        return self.map_eigenvalues(ts)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        return find_first_zero(lambda ts: np.prod(self.map_eigenvalues(ts), axis=-1), horizon)


@dataclass
class PauliRates(PauliDiagonal):
    """Qubit Pauli evolution defined by master-equation rates gamma_i(t).

    Map eigenvalues are lambda_i(t) = exp(-2 Int_0^t (gamma_j + gamma_k)),
    {i,j,k} a permutation of {x,y,z}.
    """

    g_x: ScalarFn
    g_y: ScalarFn
    g_z: ScalarFn
    dim: int = 2
    _integrals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._integrals = tuple(CumulativeIntegral(g) for g in (self.g_x, self.g_y, self.g_z))

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.exp(self.log_map_eigenvalues(ts))

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        ix, iy, iz = (integral(ts) for integral in self._integrals)
        return np.stack([-2.0 * (iy + iz), -2.0 * (ix + iz), -2.0 * (ix + iy)], axis=-1)

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        if i is None:
            return np.stack([self.rates(ts, k) for k in range(3)], -1)
        ts = np.asarray(ts, dtype=float)
        g = np.broadcast_to(np.asarray((self.g_x, self.g_y, self.g_z)[i](ts), dtype=float), ts.shape)
        return np.where(np.isfinite(g), g, 0.0)


def pauli_from_rates(g_x: ScalarFn, g_y: ScalarFn, g_z: ScalarFn, t: float):
    """Pauli probabilities at time t of the evolution driven by the rates."""
    return pauli_probs(PauliRates(g_x, g_y, g_z).map_eigenvalues(t))


@dataclass(frozen=True)
class QuasiEternal(PauliDiagonal):
    """Pauli evolution with rates (alpha/2) {1, 1, -tanh(t - t0)}.

    CPTP at all times iff alpha > 0 and t0 >= t0_alpha(alpha).  An optional
    unitary prefix keeps the map equal to the identity on [0, t_unitary]
    and runs the quasi-eternal clock from there.
    """

    alpha: float
    t0: float
    t_unitary: float = 0.0
    dim: int = 2

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.t_unitary < 0:
            raise ValueError("t_unitary must be non-negative")
        if self.t0 < t0_alpha(self.alpha) - 1e-12:
            raise CPTPViolation(
                f"t0 = {self.t0} below t0_alpha = {t0_alpha(self.alpha):.6f}: "
                "dynamical maps would not stay CPTP"
            )

    def probs(self, s: float, t: float):
        """Intermediate-map probabilities between s and t (s = 0: dynamical map)."""
        s, t = max(0.0, s - self.t_unitary), max(0.0, t - self.t_unitary)
        return quasi_eternal_probs(self.alpha, self.t0, s, t)

    def map_eigenvalues(self, ts) -> np.ndarray:
        # lambda_x = lambda_y = e^{-alpha t} (cosh(t - t0) / cosh t0)^alpha, lambda_z = e^{-2 alpha t}
        t = np.maximum(0.0, np.asarray(ts, dtype=float) - self.t_unitary)
        e1 = np.exp(-self.alpha * t)
        with np.errstate(over="ignore", invalid="ignore"):  # past alpha t ~ 710 it is 0 * inf
            lxy = e1 * np.exp(self.alpha * (_log_cosh(t - self.t0) - _log_cosh(-self.t0)))
        if not np.isfinite(lxy).all():
            lxy = np.where(np.isfinite(lxy), lxy, np.exp(self.log_map_eigenvalues(ts)[..., 0]))
        return np.stack([lxy, lxy, e1 * e1], axis=-1)

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        t = np.maximum(0.0, np.asarray(ts, dtype=float) - self.t_unitary)
        lxy = -self.alpha * t + self.alpha * (_log_cosh(t - self.t0) - _log_cosh(-self.t0))
        return np.stack([lxy, lxy, -2.0 * self.alpha * t], axis=-1)

    def rate_min(self, ts) -> np.ndarray:
        t = np.asarray(ts, dtype=float)  # the z rate never exceeds the x and y rates alpha / 2
        return np.where(t < self.t_unitary, 0.0, -self.alpha / 2.0 * np.tanh(t - self.t_unitary - self.t0))

    def is_unitary_at(self, t: float) -> bool:
        return t <= self.t_unitary + 1e-12


@dataclass(frozen=True)
class ShiftedPauli(PauliDiagonal):
    """The core t -> V_{t + shift, shift} of a Pauli-diagonal parent, with
    map eigenvalues lambda(t + shift) / lambda(shift).  Its intermediate
    maps are the parent's."""

    parent: PauliDiagonal
    shift: float

    def map_eigenvalues(self, ts) -> np.ndarray:
        return self.parent.intermediate_eigenvalues(self.shift, np.add(ts, self.shift))

    def intermediate_eigenvalues(self, s, t) -> np.ndarray:
        if not (np.all(0 <= np.asarray(s)) and np.all(np.asarray(s) <= t)):
            raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
        return self.parent.intermediate_eigenvalues(np.add(s, self.shift), np.add(t, self.shift))

    def rate_min(self, ts) -> Optional[np.ndarray]:
        return self.parent.rate_min(np.add(ts, self.shift))

    def rates(self, ts, i: Optional[int] = None) -> Optional[np.ndarray]:
        return self.parent.rates(np.add(ts, self.shift), i)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        t = self.parent.non_bijective_time(horizon + self.shift)
        return t - self.shift if t is not None and t > self.shift else None

    @functools.cached_property
    def _log_at_shift(self) -> np.ndarray:
        """log |lambda(shift)|, once per core; raises SingularMap, on every
        access, where lambda(shift) vanishes."""
        self.map_eigenvalues(0.0)
        return self.parent.log_map_eigenvalues(self.shift)

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        return self.parent.log_map_eigenvalues(np.add(ts, self.shift)) - self._log_at_shift


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def find_first_zero(f, horizon: float, n: int = 2048) -> Optional[float]:
    """Earliest root of f in (0, horizon], by sign scan plus bisection; f
    takes a float or an array of times."""
    ts = np.linspace(0.0, horizon, n)
    vals = np.asarray(f(ts), dtype=float)
    a, b = vals[:-1], vals[1:]  # step i - 1 -> i
    c = np.append(vals[2:], np.nan)  # the sample after b
    finite = np.isfinite(a) & np.isfinite(b)
    cross = finite & (((a > 0) & (b < 0)) | ((a < 0) & (b > 0)))
    # tangential zero: a near-zero local minimum of |f| refined to
    # confirm it actually touches 0 (a quadratic touch leaves the
    # nearest grid sample at O(step^2), not at machine zero)
    touch = finite & (np.abs(b) < 1e-4) & (np.abs(c) >= np.abs(b)) & (np.abs(a) >= np.abs(b))
    for i in np.flatnonzero(cross | touch | (finite & (b == 0.0))) + 1:
        if vals[i] == 0.0:
            return float(ts[i])
        if cross[i - 1]:
            return bisect_root(lambda x: float(f(x)), float(ts[i - 1]), float(ts[i]), xtol=1e-9)
        x = _refine_min_abs(f, float(ts[i - 1]), float(ts[i + 1]))
        if abs(float(f(x))) <= 1e-10:
            return x
    return None


def _refine_min_abs(f, lo: float, hi: float) -> float:
    for _ in range(80):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if abs(float(f(a))) < abs(float(f(b))):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    f0_ok: bool
    range_violations: tuple
    t_nb: Optional[float]
    cptp_ok: bool
    notes: tuple = ()


def validate_spec(evolution: Evolution, horizon: float, n: int = 256) -> ValidationReport:
    """Check the defining invariants of an evolution on a time grid."""
    if horizon <= 0 or n < 2:
        raise ValueError("need horizon > 0 and n >= 2")
    ts = np.linspace(0.0, horizon, n)
    t_nb = evolution.non_bijective_time(horizon)
    zero = "f hits zero" if isinstance(evolution, Depolarizing) else "a map eigenvalue hits zero"
    notes = () if t_nb is None else (f"non-bijective at t = {t_nb:.6f} ({zero})",)
    if isinstance(evolution, Depolarizing):
        vals = np.asarray(evolution.f(ts), dtype=float)
        f0_ok = bool(abs(vals[0] - 1.0) <= 1e-9)
        bad = [(float(t), float(v)) for t, v in zip(ts, vals) if not -1e-9 <= v <= 1.0 + 1e-9]
        cptp_ok = not bad and f0_ok
        return ValidationReport(cptp_ok, f0_ok, tuple(bad), t_nb, cptp_ok, notes)

    pmin = evolution.min_choi(evolution.map_eigenvalues(ts))
    bad = [(float(t), float(m)) for t, m in zip(ts, pmin) if m < -1e-9]
    f0_ok = bool(np.max(np.abs(evolution.dynamical_eigenvalues(0.0) - 1.0)) <= 1e-9)
    ok = f0_ok and not bad
    return ValidationReport(ok, f0_ok, tuple(bad), t_nb, not bad, notes)


PAPER_EXAMPLE_F = "(1-3*t+2*t^2+2*t^3)/(1+t^2+t^3+3*t^5)"
APPENDIX_F_F = "(2*t-1)^2/(2*t^3-t+1)"
PATHOLOGICAL_RATES = ("1", "1", "-sin(1/t)*tanh(t)")


def make_preset(name: str, **params) -> Evolution:
    """Build a catalog evolution by preset name."""
    if name == "paper-example":
        return Depolarizing(ScalarFn.parse(PAPER_EXAMPLE_F), dim=int(params.get("dim", 2)))
    if name == "appendix-f":
        return Depolarizing(ScalarFn.parse(APPENDIX_F_F), dim=int(params.get("dim", 2)))
    if name == "eternal":
        return QuasiEternal(alpha=1.0, t0=0.0)
    if name == "quasi-eternal":
        alpha = float(params.get("alpha", 0.1))
        t0 = float(params["t0"]) if "t0" in params else t0_alpha(alpha)
        return QuasiEternal(alpha=alpha, t0=t0)
    if name == "pathological":
        gx, gy, gz = (ScalarFn.parse(r) for r in PATHOLOGICAL_RATES)
        return PauliRates(gx, gy, gz)
    if name == "unitary-prefix":
        alpha = float(params.get("alpha", 2.0))
        return QuasiEternal(alpha=alpha, t0=0.0, t_unitary=float(params.get("t_unitary", 1.0)))
    raise KeyError(f"unknown preset {name!r}")


PRESET_NAMES = (
    "paper-example",
    "appendix-f",
    "eternal",
    "quasi-eternal",
    "pathological",
    "unitary-prefix",
)
