"""Seeded workload generators.

A workload is a fixed, ordered list of operation slots; the seed only draws
each slot's parameters inside ranges that keep the slot on the same code
path (same family type, grid size, format and dimension).  So every seed
gives the same mix of work, and run-to-run spread across seeds comes from
parameter jitter, not from a different mix.  The analysis can still branch
on the drawn values: about one seed in forty (504 among 501-540) gives the
sin(1/t) rates op an NNM classification, and its core measures double the
op's time.  Such seeds are kept.

Each op is one `pnmcore` CLI command.  `config` is all the program sees;
`ref` holds the family parameters the correctness checks rebuild their own
reference functions from, and is never passed to the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    command: str  # "analyze" or "scan"
    config: dict
    ref: dict
    fmt: str = "json"  # output format of "scan"

    def argv(self, out: str) -> list:
        args = [self.command, "--config", json.dumps(self.config, sort_keys=True), "--out", out]
        if self.command == "scan":
            args += ["--format", self.fmt]
        return args


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _t0_alpha(alpha: float) -> float:
    # smallest admissible quasi-eternal onset, max{0, log(2^(1/alpha) - 1) / 2}
    return 0.0 if alpha >= 1 else max(0.0, math.log(2.0 ** (1.0 / alpha) - 1.0) / 2.0)


# Every family function draws from rng and returns (evolution, horizon, ref).

# --- depolarizing: f expression and the params checks.py rebuilds it from ---


def _damped(rng):
    a, b = _u(rng, 0.2, 0.6), _u(rng, 2.0, 4.0)
    return f"exp(-{a}*t)*cos({b}*t)", {"a": a, "b": b}


def _revival(rng):
    a, b, c = _u(rng, 0.1, 0.4), _u(rng, 2.0, 5.0), _u(rng, 0.2, 0.45)
    return f"exp(-{a}*t)*(1-{c}+{c}*cos({b}*t))", {"a": a, "b": b, "c": c}


def _bump(rng):
    # the narrow-revival shape: a decay with a Gaussian bump whose width is
    # at or below the analysis grid step for some draws
    a, amp = _u(rng, 0.6, 1.4), _u(rng, 0.01, 0.03)
    t1, w = _u(rng, 0.8, 1.4), _u(rng, 0.0015, 0.008)
    return f"exp(-{a}*t)+{amp}*exp(-((t-{t1})/{w})^2)", {"a": a, "amp": amp, "t1": t1, "w": w}


def _markov(rng):
    a, b = _u(rng, 0.3, 0.9), _u(rng, 1.5, 3.0)
    return f"0.5*exp(-{a}*t)+0.5*exp(-{b}*t)", {"a": a, "b": b}


_DEPOL_FORMS = {"damped": _damped, "revival": _revival, "bump": _bump, "markov": _markov}
_DEPOL_HORIZON = {
    "paper-example": (2.5, 3.0),
    "appendix-f": (4.6, 5.4),
    "damped": (3.0, 5.0),
    "revival": (3.0, 5.0),
    "bump": (2.0, 3.0),
    "markov": (3.0, 5.0),
}


def _depolarizing(family: str, dim: int):
    def build(rng):
        h = _u(rng, *_DEPOL_HORIZON[family])
        if family in _DEPOL_FORMS:
            expr, params = _DEPOL_FORMS[family](rng)
            evolution = {"type": "depolarizing", "f": expr, "dim": dim}
        else:
            evolution, params = {"preset": family, "dim": dim}, {}
        return evolution, h, {"kind": "depolarizing", "family": family, "params": params, "dim": dim}

    return build


# --- Pauli families --------------------------------------------------------


def _quasi_eternal_ref(alpha, t0, t_unitary=0.0):
    return {"kind": "quasiEternal", "params": {"alpha": alpha, "t0": t0, "t_unitary": t_unitary}}


def _eternal(rng):
    return {"preset": "eternal"}, _u(rng, 2.5, 3.5), _quasi_eternal_ref(1.0, 0.0)


def _rates_cos(rng):
    a, b, c, w = _u(rng, 0.4, 0.6), _u(rng, 0.15, 0.25), _u(rng, 0.5, 0.7), _u(rng, 2.5, 3.5)
    return (
        {"type": "pauliRates", "g_x": f"{a}", "g_y": f"{a}", "g_z": f"{b}+{c}*cos({w}*t)"},
        _u(rng, 3.0, 4.0),
        {"kind": "pauliRates", "family": "cos", "params": {"a": a, "b": b, "c": c, "w": w}},
    )


def _unitary_prefix(rng):
    alpha, t_u = _u(rng, 1.0, 3.0), _u(rng, 0.5, 1.5)
    return (
        {"preset": "unitary-prefix", "alpha": alpha, "t_unitary": t_u},
        _u(rng, 4.0, 6.0),
        _quasi_eternal_ref(alpha, 0.0, t_u),
    )


def _probs(rng):
    # w >= 1 keeps T below the PNM threshold, so the op never grows a core
    q, k, r, w = _u(rng, 0.05, 0.15), _u(rng, 0.5, 1.5), _u(rng, 0.1, 0.25), _u(rng, 1.0, 1.5)
    return (
        {
            "type": "pauliProbs",
            "p_x": f"{q}*(1-exp(-{k}*t))",
            "p_y": f"{q}*(1-exp(-{k}*t))",
            "p_z": f"{r}*sin({w}*t)^2",
        },
        _u(rng, 3.0, 5.0),
        {"kind": "pauliProbs", "params": {"q": q, "k": k, "r": r, "w": w}},
    )


def _pathological(rng):
    ref = {"kind": "pauliRates", "family": "sin", "params": {"a": 1.0, "c": 1.0}}
    return {"preset": "pathological"}, _u(rng, 2.5, 3.5), ref


def _quasi_eternal_preset(rng):
    alpha = _u(rng, 0.3, 0.8)
    t0 = round(_t0_alpha(alpha) + _u(rng, 0.3, 1.0), 4)
    return (
        {"preset": "quasi-eternal", "alpha": alpha, "t0": t0},
        round(t0 + _u(rng, 6.0, 10.0), 4),
        _quasi_eternal_ref(alpha, t0),
    )


def _rates_sin(rng):
    a, c = _u(rng, 0.5, 1.5), _u(rng, 0.5, 1.0)
    return (
        {"type": "pauliRates", "g_x": f"{a}", "g_y": f"{a}", "g_z": f"-{c}*sin(1/t)*tanh(t)"},
        _u(rng, 2.5, 5.0),
        {"kind": "pauliRates", "family": "sin", "params": {"a": a, "c": c}},
    )


def _quasi_eternal_typed(prefix: bool):
    # a unitary prefix sends the core down the ShiftedEvolution path; without
    # one the core is another closed-form quasi-eternal family
    def build(rng):
        alpha = _u(rng, 0.5, 2.0)
        t0 = round(_t0_alpha(alpha) + _u(rng, 0.3, 1.5), 4)
        t_u = _u(rng, 0.2, 0.8) if prefix else 0.0
        return (
            {"type": "quasiEternal", "alpha": alpha, "t0": t0, "t_unitary": t_u},
            round(t0 + t_u + _u(rng, 2.0, 4.0), 4),
            _quasi_eternal_ref(alpha, t0, t_u),
        )

    return build


# --- workloads: (family function, command, grid points, scan format) per slot


def _analyze(build, n=400):
    return (build, "analyze", n, "json")


# One slot per family, each with dim in {2, 3} and grid_points in {400, 800}.
_DEPOLARIZING_SLOTS = tuple(
    _analyze(_depolarizing(family, dim), n) for family in _DEPOL_HORIZON for dim in (2, 3) for n in (400, 800)
)

# One slot per family.
_PAULI_SLOTS = tuple(
    _analyze(build)
    for build in (
        _eternal,
        _quasi_eternal_preset,
        _pathological,
        _unitary_prefix,
        _rates_cos,
        _rates_sin,
        _probs,
        _quasi_eternal_typed(prefix=True),
    )
)

# Every family in both formats; the one JSON grid at n = 800 sets the
# workload's peak memory.
_SCAN_SLOTS = (
    (_depolarizing("damped", 2), "scan", 400, "csv"),
    (_quasi_eternal_typed(prefix=False), "scan", 400, "json"),
    (_rates_cos, "scan", 400, "json"),
    (_depolarizing("revival", 3), "scan", 600, "csv"),
    (_quasi_eternal_typed(prefix=False), "scan", 800, "csv"),
    (_depolarizing("damped", 3), "scan", 800, "json"),
    (_rates_cos, "scan", 600, "csv"),
    (_depolarizing("markov", 2), "scan", 400, "csv"),
)

_SLOTS = {
    "pauli-families": _PAULI_SLOTS,
    "depolarizing-families": _DEPOLARIZING_SLOTS,
    "scan-export": _SCAN_SLOTS,
}
WORKLOADS = tuple(_SLOTS)


def generate(workload: str, seed: int) -> list:
    """The workload's ops, with parameters drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for build, command, n, fmt in _SLOTS[workload]:
        evolution, horizon, ref = build(rng)
        config = {"evolution": evolution, "horizon": horizon, "grid_points": n}
        ops.append(Op(command, config, ref, fmt))
    return ops
