"""Dynamical-map families: depolarizing, Pauli (probability- and
rate-driven), quasi-eternal, and the cores shifted out of them.

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
from .numerics import DETECT_POINTS, EVAL_ERRORS, RATE_POINTS, CumulativeIntegral, bisect_root, rate_roots, ternary_search

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
    """Smallest Choi eigenvalue of Pauli maps with eigenvalues lam[..., k]:
    pauli_probs' sums in its order, in place, then one /4 (it rounds monotonically)."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 1:  # in-place sums need arrays
        return pauli_min_prob(lam[None])[0]
    lx, ly, lz = np.moveaxis(lam, -1, 0)  # contiguous blocks where lam views component-first ratios
    px, pz = 1.0 + lx, 1.0 - lx
    p0, py = px + ly, pz + ly
    p0 += lz
    py -= lz
    np.subtract(np.subtract(px, ly, out=px), lz, out=px)
    np.add(np.subtract(pz, ly, out=pz), lz, out=pz)
    np.minimum(np.minimum(p0, px, out=p0), np.minimum(py, pz, out=py), out=p0)
    return np.divide(p0, 4.0, out=p0)


class Evolution:
    """A one-parameter family of quantum maps acting diagonally on a fixed
    operator basis.  Subclasses give `map_eigenvalues(ts)` with shape (..., m)
    for a float or an array of times; for maps with eigenvalues lam, the
    smallest Choi eigenvalue `min_choi(lam)` and the dense map
    `superoperator(lam)`; `singular(s)`, the error for V_{t,s} where
    lambda(s) vanishes; `is_unitary_at(t)`; and the canonical rates `rates(ts)`
    (Hall, Cresser, Li, Andersson, PRA 89, 042120 (2014)) and their integrals
    `rate_integrals(ts)`.  V_{t,s} has lambda(t) / lambda(s)."""

    dim: int = 2
    singular_tol = -math.inf  # |lambda(s)| at or below it: V_{t,s} is not defined
    rate_points = RATE_POINTS

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        """log |lambda(ts)|, which families with exponential eigenvalues
        give in closed form, so it does not underflow."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.map_eigenvalues(ts)))

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        """map_eigenvalues, raising wherever dynamical_map would."""
        return self.map_eigenvalues(ts)

    def intermediate_eigenvalues(self, s, t) -> np.ndarray:
        """lambda(t) / lambda(s), the eigenvalues of V_{t,s}, broadcast over s and t, in one
        map_eigenvalues call; if it raises, lambda(s), its check and lambda(t) raise in turn."""
        _check_order(s, t)
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        try:
            lam = self.map_eigenvalues(np.concatenate((s.ravel(), t.ravel())))
            at_s, at_t = lam[: s.size].reshape(s.shape + lam.shape[-1:]), lam[s.size :].reshape(t.shape + lam.shape[-1:])
        except EVAL_ERRORS:
            at_s, at_t = self.map_eigenvalues(s), None
        singular = np.min(np.abs(at_s), axis=-1) <= self.singular_tol
        if np.any(singular):
            raise self.singular(float(np.ravel(s)[np.argmax(singular)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.map_eigenvalues(t) if at_t is None else at_t) / at_s

    def dynamical_map(self, t: float) -> linalg.Superoperator:
        return self.superoperator(self.dynamical_eigenvalues(t))

    def intermediate_map(self, s: float, t: float) -> linalg.Superoperator:
        """V_{t,s} with dynamical_map(t) = V_{t,s} ∘ dynamical_map(s)."""
        return self.superoperator(self.intermediate_eigenvalues(s, t))

    def intermediate_min_choi(self, s, t):
        """Smallest Choi eigenvalue of V_{t,s}, broadcast over s and t."""
        return self.min_choi(self.intermediate_eigenvalues(s, t))

    def rate_min(self, ts) -> np.ndarray:
        """min_i gamma_i(ts); rates(ts, i) is gamma_i(ts) alone, shape ts.shape."""
        return np.min(self.rates(ts), axis=-1)

    def turns(self, horizon: float, n: int = 0):
        """(times, map eigenvalues at them): 0, the rates' sign changes on linspace(0,
        horizon, max(n, rate_points)), and horizon, in order; each c_i (and f) is
        monotone between consecutive times.  Kept for the last horizon and grid asked."""
        key = (horizon, max(n, self.rate_points))
        cached = self.__dict__.get("_turn_cache")
        if cached is None or cached[0] != key:
            cached = self.__dict__["_turn_cache"] = key, self._turns(*key)
        return cached[1]

    def _turns(self, horizon: float, n: int):
        ts = np.linspace(0.0, horizon, n)
        points = np.concatenate(([0.0], np.sort(rate_roots(self.rates, ts, self.rates(ts))), [horizon]))
        return points, self.map_eigenvalues(points)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        """First time in (0, horizon] where the dynamical map loses its
        inverse, if any."""
        return None

    def _first_zero(self, f, horizon: float) -> Optional[float]:
        """find_first_zero(f, horizon), searched once per instance and horizon."""
        zeros = self.__dict__.setdefault("_first_zeros", {})
        return zeros[horizon] if horizon in zeros else zeros.setdefault(horizon, find_first_zero(f, horizon))

    def composition_bound(self, lam, tol: float) -> float:
        """analysis.verify_composition_rules' B for a scan of the map eigenvalues lam."""
        return math.inf


@dataclass(frozen=True)
class Depolarizing(Evolution):
    """rho -> f(t) rho + (1 - f(t)) Tr[rho] 1/d, the one map eigenvalue f(t)."""

    f: ScalarFn
    dim: int = 2
    singular_tol = F_ZERO_TOL
    rate_points = DETECT_POINTS

    def f_at(self, ts):
        """f at a float (a float) or an array of times, raising where it is not finite."""
        v = np.asarray(self.f(ts), dtype=float)
        bad = ~np.isfinite(v)
        if np.any(bad):
            raise NonFiniteResult(f"f({np.broadcast_to(ts, bad.shape)[bad].flat[0]}) is not finite")
        return v if v.ndim else float(v)

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.asarray(self.f(ts), dtype=float)[..., None]

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        return np.asarray(self.f_at(ts))[..., None]

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

    def is_unitary_at(self, t):
        return np.abs(self.f_at(t) - 1.0) <= 1e-9

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        return self._first_zero(self.f, horizon)

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        """The d^2 - 1 equal canonical rates summed, -(1 - 1/d^2) f'/|f|: of -f''s sign where
        f < 0 too (tau is f's first rise), one column; raises where f' is not finite."""
        f, df = self.f.dual(ts)
        bad = ~np.isfinite(df)
        if np.any(bad):
            raise NonFiniteResult(f"derivative not finite at t={np.broadcast_to(ts, bad.shape)[bad].flat[0]}")
        with np.errstate(divide="ignore", invalid="ignore"):  # f = 0: an infinite rate of -f''s sign, or NaN
            g = -(1.0 - 1.0 / self.dim**2) * df / np.abs(f)
        return g[..., None] if i is None else g

    def rate_integrals(self, ts) -> np.ndarray:
        """c = -(1 - 1/d^2) ln|f| before f's first zero, one column."""
        return -(1.0 - 1.0 / self.dim**2) * self.log_map_eigenvalues(ts)


class ShiftedDepolarizing(Depolarizing):
    """The core t -> V_{t + shift, shift} of a depolarizing parent, with f(t) =
    parent.f(t + shift) / parent.f(shift) and the parent's rates at t + shift.
    Its turns and first zero are the parent's cached ones past shift, shifted
    and scaled, wherever the parent's range covers [shift, shift + horizon]."""

    def __init__(self, parent: Depolarizing, shift: float):
        at_shift = parent.f_at(shift)
        if at_shift <= F_ZERO_TOL:
            raise UndefinedIntermediateMap(f"f({shift}) = 0: core undefined at or past t_NB")
        super().__init__(parent.f.shifted(shift, at_shift), parent.dim)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_at_shift", at_shift)

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        return self.parent.rates(np.add(ts, self.shift), i)

    def _turns(self, horizon: float, n: int):
        return _parent_turns(self, horizon, n, self._at_shift) or super()._turns(horizon, n)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        t = _parent_zero(self.parent, self.shift, horizon)
        if t is _UNCOVERED or (t is not None and t <= self.shift):  # the parent's first zero hides the core's
            return super().non_bijective_time(horizon)
        return None if t is None else t - self.shift


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

    def is_unitary_at(self, t):
        # a Pauli map is unitary iff it is conjugation by a single sigma_i
        return np.maximum.reduce(pauli_probs(self.map_eigenvalues(t))) >= 1.0 - 1e-9

    def rate_integrals(self, ts) -> np.ndarray:
        """c_i = ln lambda_i / 2 - sum_k ln lambda_k / 4, from the log-eigenvalues."""
        logs = self.log_map_eigenvalues(ts)
        return logs / 2.0 - (logs[..., :1] + logs[..., 1:2] + logs[..., 2:]) / 4.0


@dataclass(frozen=True)
class PauliProbs(PauliDiagonal):
    """Qubit Pauli evolution given by probability functions p_x, p_y, p_z."""

    p_x: ScalarFn
    p_y: ScalarFn
    p_z: ScalarFn
    dim: int = 2
    singular_tol = 1e-12
    rate_points = DETECT_POINTS

    @functools.cached_property
    def _fns(self) -> tuple:  # p_x, p_y, p_z, equal parsed expressions one object
        return tuple(_once_each((self.p_x, self.p_y, self.p_z), lambda p: p, lambda p: p.ast))

    def probs_at(self, ts, dual: bool = False):
        """(p_0, p_x, p_y, p_z) at a float or an array of times, and with dual (p_x', p_y', p_z')."""
        ts = np.asarray(ts, dtype=float)
        call = (lambda p: p.dual(ts)) if dual else (lambda p: (p(ts),))
        (px, *dx), (py, *dy), (pz, *dz) = ([np.broadcast_to(np.asarray(v, dtype=float), ts.shape) for v in vs] for vs in _once_each(self._fns, call))
        bad = ~np.isfinite(px + py + pz)
        if np.any(bad):
            raise NonFiniteResult(f"Pauli probabilities not finite at t={ts[bad].flat[0]}")
        probs = (1.0 - px - py - pz, px, py, pz)
        return probs + ((*dx, *dy, *dz),) if dual else probs

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.stack(pauli_eigs_from_probs(*self.probs_at(ts)), axis=-1)

    def dynamical_eigenvalues(self, ts) -> np.ndarray:
        bad = np.min(self.probs_at(ts), axis=0) < -1e-9
        if np.any(bad):
            raise CPTPViolation(f"Pauli probabilities negative at t={np.asarray(ts)[bad].flat[0]}")
        return self.map_eigenvalues(ts)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        return self._first_zero(lambda ts: np.prod(self.map_eigenvalues(ts), axis=-1), horizon)

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        """lambda_x' = -2(p_y' + p_z'), D_x = -lambda_x' / (2 lambda_x), gamma_x = (D_y + D_z -
        D_x) / 2, cyclically; NaN or infinite where a lambda_k vanishes or a p_k' is not finite."""
        *probs, (dx, dy, dz) = self.probs_at(ts, dual=True)
        lam = np.stack(pauli_eigs_from_probs(*probs), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.stack([dy + dz, dx + dz, dx + dy], axis=-1) / lam  # D = -lambda' / (2 lambda)
            g = (d[..., :1] + d[..., 1:2] + d[..., 2:]) / 2.0 - d
        return g if i is None else g[..., i]


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
    _integrals: tuple = field(init=False, repr=False, compare=False)  # equal rate expressions share one

    def __post_init__(self):
        self._integrals = tuple(_once_each((self.g_x, self.g_y, self.g_z), CumulativeIntegral, lambda g: getattr(g, "ast", g)))

    def map_eigenvalues(self, ts) -> np.ndarray:
        return np.exp(self.log_map_eigenvalues(ts))

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        ix, iy, iz = _once_each(self._integrals, lambda q: q(ts))
        return np.stack([-2.0 * (iy + iz), -2.0 * (ix + iz), -2.0 * (ix + iy)], axis=-1)

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        integrals = self._integrals if i is None else self._integrals[i : i + 1]
        g = np.stack([np.broadcast_to(np.asarray(v, dtype=float), ts.shape) for v in _once_each(integrals, lambda q: q.fn(ts))], -1)
        g = np.where(np.isfinite(g), g, 0.0)
        return g if i is None else g[..., 0]


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

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        t = np.asarray(ts, dtype=float)[..., None]
        g = np.where(t < self.t_unitary, 0.0, self.alpha / 2.0 * np.where([True, True, False], 1.0, -np.tanh(t - self.t_unitary - self.t0)))
        return g if i is None else g[..., i]

    def is_unitary_at(self, t):
        return np.asarray(t) <= self.t_unitary + 1e-12


@dataclass(frozen=True)
class ShiftedPauli(PauliDiagonal):
    """The core t -> V_{t + shift, shift} of a Pauli-diagonal parent, with
    map eigenvalues lambda(t + shift) / lambda(shift).  Its intermediate
    maps are the parent's."""

    parent: PauliDiagonal
    shift: float

    rate_points = property(lambda self: self.parent.rate_points)

    @functools.cached_property
    def _at_shift(self) -> tuple:
        """(lambda(shift), log |lambda(shift)|), once per core; raises, on every access, where it is singular."""
        lam = self.parent.map_eigenvalues(self.shift)
        if np.min(np.abs(lam)) <= self.parent.singular_tol:
            raise self.parent.singular(float(self.shift))
        return lam, self.parent.log_map_eigenvalues(self.shift)

    def map_eigenvalues(self, ts) -> np.ndarray:
        t = np.add(ts, self.shift)
        _check_order(self.shift, t)
        at_shift = self._at_shift[0]  # before lambda(t + shift): its error comes first
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.parent.map_eigenvalues(t) / at_shift

    def intermediate_eigenvalues(self, s, t) -> np.ndarray:
        _check_order(s, t)
        return self.parent.intermediate_eigenvalues(np.add(s, self.shift), np.add(t, self.shift))

    def rates(self, ts, i: Optional[int] = None) -> np.ndarray:
        self._at_shift  # raises where lambda(shift) is singular: the core is undefined
        return self.parent.rates(np.add(ts, self.shift), i)

    def _turns(self, horizon: float, n: int):
        return _parent_turns(self, horizon, n, self._at_shift[0]) or super()._turns(horizon, n)

    def non_bijective_time(self, horizon: float) -> Optional[float]:
        t = _parent_zero(self.parent, self.shift, horizon)
        if t is _UNCOVERED:
            t = self.parent.non_bijective_time(horizon + self.shift)
        if t is not None and t <= self.shift:  # the parent's first zero hides the core's
            return self._first_zero(lambda ts: np.prod(self.map_eigenvalues(ts), axis=-1), horizon)
        return None if t is None else t - self.shift

    def log_map_eigenvalues(self, ts) -> np.ndarray:
        return self.parent.log_map_eigenvalues(np.add(ts, self.shift)) - self._at_shift[1]


def _covering(horizons, shift: float, horizon: float):
    """(h, end) for the first parent range [0, h] among horizons that holds a
    core's [0, horizon] as [shift, end]: end = h where shift + horizon rounds
    to within a few ulps of h (as (h - shift) + shift may), else shift +
    horizon inside it; (None, None) where none does."""
    end = shift + horizon
    for h in horizons:
        if abs(end - h) <= 4 * math.ulp(h):
            return h, h
        if end < h:
            return h, end
    return None, None


def _parent_turns(core, horizon: float, n: int, at_shift):
    """A core's turns: its parent's cached ones past shift, shifted and divided by its
    eigenvalues at shift, if they cover [shift, shift + horizon] on a grid as fine; else None."""
    (h, m), cached = core.parent.__dict__.get("_turn_cache", ((None, 0), None))
    h, end = _covering([h] if m >= n else [], core.shift, horizon)
    if h is None:
        return None
    ts, lam = cached
    keep = (ts > core.shift) & (ts <= end)
    ts, lam = np.append(0.0, ts[keep] - core.shift), np.concatenate((np.ones((1, lam.shape[-1])), lam[keep] / at_shift))
    if end < h:  # the parent's range goes on: the core's ends at its horizon
        ts, lam = np.append(ts, horizon), np.concatenate((lam, core.map_eigenvalues(np.array([horizon]))))
    return ts, lam


_UNCOVERED = object()


def _parent_zero(parent: Evolution, shift: float, horizon: float):
    """The parent's cached first zero on a range covering a core's [0,
    horizon], in the parent's time: None where it lies past the core's range,
    _UNCOVERED where no search covered it."""
    zeros = parent.__dict__.get("_first_zeros", {})
    h, end = _covering(zeros, shift, horizon)
    if h is None:
        return _UNCOVERED
    t = zeros[h]
    return None if t is None or t > end else t


def _check_order(s, t):
    if not (np.all(0 <= np.asarray(s)) and np.all(np.asarray(s) <= t)):
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")


def _once_each(items, call, key=id) -> list:
    """[call(x) for x in items], called once per distinct key(x)."""
    done = {}
    return [done[k] if (k := key(x)) in done else done.setdefault(k, call(x)) for x in items]


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
            return bisect_root(f, float(ts[i - 1]), float(ts[i]), xtol=1e-9)
        x = ternary_search(f, float(ts[i - 1]), float(ts[i + 1]), lambda fa, fb: abs(fa) < abs(fb), 80)
        if abs(float(f(x))) <= 1e-10:
            return x
    return None


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
    depolarizing = isinstance(evolution, Depolarizing)
    zero = "f hits zero" if depolarizing else "a map eigenvalue hits zero"
    notes = () if t_nb is None else (f"non-bijective at t = {t_nb:.6f} ({zero})",)
    if depolarizing:  # f in [0, 1]; NaN is out of range
        vals = np.asarray(evolution.f(ts), dtype=float)
        f0_ok = bool(abs(vals[0] - 1.0) <= 1e-9)
        out = ~((-1e-9 <= vals) & (vals <= 1.0 + 1e-9))
    else:  # the smallest Choi eigenvalue >= 0
        vals = evolution.min_choi(evolution.map_eigenvalues(ts))
        out = vals < -1e-9
        f0_ok = bool(np.max(np.abs(evolution.dynamical_eigenvalues(0.0) - 1.0)) <= 1e-9)
    bad = tuple(zip(ts[out].tolist(), vals[out].tolist()))
    cptp_ok = not bad and (f0_ok or not depolarizing)  # a depolarizing family's includes f(0) = 1
    return ValidationReport(f0_ok and cptp_ok, f0_ok, bad, t_nb, cptp_ok, notes)


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
