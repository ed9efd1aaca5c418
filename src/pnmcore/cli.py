"""Configuration ingestion, command dispatch, and report/grid export.

Subcommands: analyze, scan, core, measures, catalog, eb.  Exit codes:
0 success, 1 configuration error, 2 numeric failure.  Exports are
byte-deterministic: the same config always produces the same files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (
    CLASS_NAMES,
    CharTimes,
    CptpGrid,
    characteristic_times,
    extract_pnm_core,
    scan_regions,
    verify_composition_rules,
)
from .errors import (
    CPTPViolation,
    ExprSyntaxError,
    ParseError,
    PnmError,
    SchemaError,
)
from .evolutions import (
    Depolarizing,
    Evolution,
    PRESET_NAMES,
    PauliProbs,
    PauliRates,
    QuasiEternal,
    make_preset,
    t0_alpha,
    validate_spec,
)
from .exprparse import ScalarFn
from .measures import MeasureReport, eb_time_qubit, measure_report

DEFAULT_HORIZON = 5.0
DEFAULT_GRID = 400
MAX_GRID = 2048  # a materialized grid (scan export, a read of value or cls) grows as grid_points**2
MAX_DIM = 32  # input validation: the report builds no dim^2 x dim^2 map, but the dense oracle maps do (16 MB at 32)

_CONFIG_FIELDS = {"evolution", "horizon", "grid_points", "tolerances", "outputs", "seed"}
_EVOLUTION_FIELDS = {
    "preset",
    "type",
    "dim",
    "f",
    "alpha",
    "t0",
    "t_unitary",
    "g_x",
    "g_y",
    "g_z",
    "p_x",
    "p_y",
    "p_z",
}


@dataclass(frozen=True)
class AnalysisConfig:
    evolution: Evolution
    evolution_spec: dict
    horizon: float = DEFAULT_HORIZON
    grid_points: int = DEFAULT_GRID
    scan_tol: float = 1e-10
    seed: int = 0


def _field(spec: dict, key: str, default, kind, pointer: str):
    """spec[key], or default, converted by kind (float or int); finite."""
    try:
        value = kind(spec.get(key, default))
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"field {key!r} must be a finite number", f"{pointer}/{key}")


def _expr(spec: dict, key: str, pointer: str) -> ScalarFn:
    text = spec.get(key)
    if not isinstance(text, str):
        raise SchemaError(f"field {key!r} must be an expression string", f"{pointer}/{key}")
    try:
        return ScalarFn.parse(text)
    except ExprSyntaxError as exc:
        raise SchemaError(f"bad expression for {key!r}: {exc}", f"{pointer}/{key}")


def _build_evolution(spec: dict, strict: bool) -> Evolution:
    if not isinstance(spec, dict):
        raise SchemaError("'evolution' must be an object", "/evolution")
    unknown = set(spec) - _EVOLUTION_FIELDS
    if unknown:
        msg = f"unknown evolution fields: {sorted(unknown)}"
        if strict:
            raise SchemaError(msg, "/evolution")
        print(f"warning: {msg}", file=sys.stderr)
    numbers = ("alpha", "t0", "t_unitary")
    params = {k: _field(spec, k, None, float, "/evolution") for k in numbers if k in spec}
    params["dim"] = _field(spec, "dim", 2, int, "/evolution")
    if not 2 <= params["dim"] <= MAX_DIM:
        raise SchemaError(f"dim must be from 2 to {MAX_DIM}", "/evolution/dim")
    if "preset" in spec:
        if spec["preset"] not in PRESET_NAMES:
            raise SchemaError(f"unknown preset {spec['preset']!r}", "/evolution/preset")
        try:
            return make_preset(spec["preset"], **params)
        except (CPTPViolation, ValueError) as exc:
            raise SchemaError(str(exc), "/evolution")
    kind = spec.get("type")
    if kind == "depolarizing":
        return Depolarizing(_expr(spec, "f", "/evolution"), dim=params["dim"])
    if kind == "quasiEternal":
        alpha, t0 = params.get("alpha", 0.0), params.get("t0", 0.0)
        if alpha <= 0:
            raise SchemaError("alpha must be positive", "/evolution/alpha")
        if t0 < t0_alpha(alpha) - 1e-12:
            raise SchemaError(
                f"t0 = {t0} below the validity threshold {t0_alpha(alpha):.6f}",
                "/evolution/t0",
            )
        if params.get("t_unitary", 0.0) < 0:
            raise SchemaError("t_unitary must be non-negative", "/evolution/t_unitary")
        return QuasiEternal(alpha=alpha, t0=t0, t_unitary=params.get("t_unitary", 0.0))
    if kind == "pauliRates":
        return PauliRates(*(_expr(spec, k, "/evolution") for k in ("g_x", "g_y", "g_z")))
    if kind == "pauliProbs":
        return PauliProbs(*(_expr(spec, k, "/evolution") for k in ("p_x", "p_y", "p_z")))
    raise SchemaError(f"unknown evolution type {kind!r}", "/evolution/type")


def load_config(text_or_path: str, strict: bool = True, overrides=None) -> AnalysisConfig:
    """Parse and validate a JSON config given as text or a file path; the
    non-None entries of overrides (command-line options) replace its fields."""
    text = text_or_path
    if not text.lstrip().startswith("{"):
        try:
            with open(text_or_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config file: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise SchemaError("config must be a JSON object", "/")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        msg = f"unknown config fields: {sorted(unknown)}"
        if strict:
            raise SchemaError(msg, "/")
        print(f"warning: {msg}", file=sys.stderr)
    if "evolution" not in raw:
        raise SchemaError("missing required field 'evolution'", "/evolution")
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    horizon = _field(raw, "horizon", DEFAULT_HORIZON, float, "")
    if horizon <= 0:
        raise SchemaError("horizon must be positive and finite", "/horizon")
    grid_points = _field(raw, "grid_points", DEFAULT_GRID, int, "")
    if not 16 <= grid_points <= MAX_GRID:
        raise SchemaError(f"grid_points must be from 16 to {MAX_GRID}", "/grid_points")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise SchemaError("'tolerances' must be an object", "/tolerances")
    scan_tol = _field(tol, "scan", 1e-10, float, "/tolerances")
    if scan_tol < 0:
        raise SchemaError("tolerances.scan must be non-negative", "/tolerances/scan")
    outputs = raw.get("outputs", ["report"])
    if not isinstance(outputs, list):
        raise SchemaError("'outputs' must be a list", "/outputs")
    for o in outputs:
        if o not in ("report", "grid", "flux"):
            raise SchemaError(f"unknown output {o!r}", "/outputs")
    return AnalysisConfig(
        evolution=_build_evolution(raw["evolution"], strict),
        evolution_spec=raw["evolution"],
        horizon=horizon,
        grid_points=grid_points,
        scan_tol=scan_tol,
        seed=_field(raw, "seed", 0, int, ""),
    )


def _times_dict(ct: CharTimes) -> dict:
    cvt = lambda v: v if math.isfinite(v) else None
    return {
        "T": cvt(ct.T),
        "tau": cvt(ct.tau),
        "t_star": cvt(ct.t_star),
        "horizon_limited": list(ct.horizon_limited),
    }


def run_report(cfg: AnalysisConfig) -> dict:
    """Full deterministic pipeline: validate, scan, times, classify, core,
    measures."""
    e = cfg.evolution
    validation = validate_spec(e, cfg.horizon)
    grid = scan_regions(e, cfg.horizon, cfg.grid_points, cfg.scan_tol)
    ct = characteristic_times(e, cfg.horizon, cfg.grid_points)
    doc = {
        "tool_version": __version__,
        "seed": cfg.seed,
        "config": {
            "evolution": cfg.evolution_spec,
            "horizon": cfg.horizon,
            "grid_points": cfg.grid_points,
        },
        "classification": ct.classification,
        "times": _times_dict(ct),
        "validation": {
            "valid": validation.valid,
            "notes": list(validation.notes),
        },
        "composition_rule_violations": verify_composition_rules(grid),
        "min_choi": dict(zip(("value", "s", "t"), grid.min_value())),
        "regularized_scan": grid.regularized,
    }
    measures = None
    if ct.classification in ("NNM", "PNM"):
        measures = measure_report(e, cfg.horizon, ct.T)
    elif ct.classification == "Markovian":
        measures = measure_report(e, cfg.horizon, math.inf)
    if measures is not None:
        doc["measures"] = _measures_dict(measures)
    if ct.classification == "NNM":
        core = extract_pnm_core(e, ct.T)
        core_ct = ct.shifted()
        core_grid_h = max(cfg.horizon - ct.T, cfg.horizon / 10)
        doc["core"] = {
            "times": _times_dict(core_ct),
            "recomputed_times": _times_dict(
                characteristic_times(core, core_grid_h, cfg.grid_points)
            ),
        }
        doc["core"]["measures"] = _measures_dict(measure_report(core, core_grid_h, 0.0))
    return doc


def _measures_dict(rep: MeasureReport) -> dict:
    """The measure bundle as strict JSON: a non-finite value (a divergent
    rhp) is null, as in _times_dict."""
    md = dataclasses.asdict(rep)
    md["values_are_lower_bounds"] = not md.pop("exact")
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in md.items()}


_JSON_HEAD = '{\n  "horizon": %s,\n  "n": %s,\n  "regularized": %s,\n  "cells": ['
_JSON_CELL = ',\n    {\n      "s": %s,\n      "t": ', '%s,\n      "value": ', ',\n      "class": "%s"\n    }'

CSV_BLOCK = 8192  # cells per export block, rounded up to whole scan rows: bounds its buffers
_NEAR_TIE = 1e-3  # |frac - 1/2| at or below it: the fast digits might round the wrong way
_VALUE_WIDTH = 19  # len("%.11e" % x) is at most 19, as in "-1.79769313486e+308"
_JSON_WIDTH = 42  # sign, "0.000", 17 digits each followed by a ".", and _DOTTED's padding


def _words(strings) -> np.ndarray:
    """The ASCII strings NUL-padded to a whole number of 4-byte words, as
    one void item each: numpy copies those fastest."""
    table = np.array(list(strings), dtype="S")
    width = -(-table.itemsize // 4) * 4
    return table.astype(f"S{width}").view(f"V{width}")


# 10^k, k = -88..110, each correctly rounded: y = |x| 10^(11 - e) for |e| < 100
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 111)])
_DDD = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)  # "000".."999"
_DIGITS = np.pad(_DDD, ((0, 0), (0, 1))).view("V4")[:, 0]  # "DDD" and a NUL
_LEAD = np.insert(_DDD, 1, ord("."), axis=1).view("V4")[:, 0]  # "D.DD"
_EXPONENT = _words("e%+03d" % k for k in range(-99, 100))
_TENS = 10 ** np.arange(18)  # int64
_DOTTED = np.pad(np.insert(_DDD, [1, 2, 3], ord("."), axis=1), ((0, 0), (0, 2))).view("V8")[:, 0]  # "D.D.D."
# JSON value columns: a sign, "0.000", then 17 digits each followed by ".".
# For decimal point position dp and sig significant digits, column c shows
# where lo <= dp <= hi or sig > more; _KEEP is that 0/255 mask, dp -3..16, sig 1..17.
_RULES = [(-99, 99, 99), (-99, 0, 99), (-99, 0, 99), (-99, -1, 99), (-99, -2, 99), (-99, -3, 99)]
_lo, _hi, _more = np.array(_RULES + [r for i in range(17) for r in ((i, 99, i), (i + 1, i + 1, 99))]).T
_dp, _sig = np.arange(-3, 17)[:, None, None], np.arange(1, 18)[:, None]
_KEEP = (255 * (((_dp >= _lo) & (_dp <= _hi)) | (_sig > _more))).astype(np.uint8).reshape(340, 40).view("V40")[:, 0]


def export_grid(grid: CptpGrid, fmt: str = "csv") -> str:
    """Serialize the scan grid.

    CSV: rows (s, t, value, class) in row-major order, %.11e (12 significant
    digits, nan/inf tokens).  JSON: the json.dumps(indent=2) layout, repr
    floats, null for a non-finite value."""
    return "".join(_export_rows(grid, fmt))


def _export_rows(grid: CptpGrid, fmt: str):
    """export_grid as a stream of strings: the header, then the cells in
    blocks of whole scan rows, then the trailer."""
    names = [CLASS_NAMES[c] for c in range(len(CLASS_NAMES))]
    if fmt == "csv":
        stamps = ["%.11e," % t for t in grid.times.tolist()]
        yield "s,t,value,class\n"
        yield from _blocks(grid, stamps, stamps, _encode_values, _VALUE_WIDTH, [",%s\n" % c for c in names])
        return
    if fmt != "json":
        raise SchemaError(f"unknown format {fmt!r}", "/format")
    if not np.all(np.isfinite(grid.times)):
        raise ValueError("Out of range float values are not JSON compliant")
    s, t = ([f % repr(x) for x in grid.times.tolist()] for f in _JSON_CELL[:2])
    # a JSON cell is 2.5 times a CSV line: half the cells keep a block's bytes alike
    blocks = _blocks(grid, s, t, _encode_repr, _JSON_WIDTH, [_JSON_CELL[2] % c for c in names], CSV_BLOCK // 2)
    dump = lambda x: json.dumps(x, allow_nan=False)
    # every cell opens with ",\n": the first one's comma is dropped
    yield _JSON_HEAD % (dump(grid.horizon), dump(grid.n), dump(grid.regularized)) + next(blocks, ",")[1:]
    yield from blocks
    yield "\n  ]\n}\n" if grid.n else "]\n}\n"


def _blocks(grid: CptpGrid, first, second, encode, width: int, names, size: int = CSV_BLOCK):
    """The s <= t cells, one ASCII string per block of at least size cells,
    each cell first[i] second[j] value class.  A block's cells are built in
    one (cells, columns) byte matrix, field by field from tables, with NUL
    padding that one translate strips."""
    n, w1, w2 = grid.n, max(map(len, first), default=0), max(map(len, second), default=0)
    first, second, names = _words(first), _words(second), _words(names)
    starts = np.concatenate([[0], np.cumsum(np.arange(n, 0, -1))])  # first cell of each row
    r0 = 0
    while r0 < n:
        r1 = min(n, int(np.searchsorted(starts, starts[r0] + size)))
        rows, cols = np.nonzero(np.arange(n) >= np.arange(r0, r1)[:, None])
        rows += r0
        # fields left to right: the padding words of one spill into the next
        data = bytearray(len(rows) * (w1 + w2 + width + names.itemsize))  # zeros
        buf = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), -1)
        _put(buf, 0, first, rows)
        _put(buf, w1, second, cols)
        encode(grid.value[rows, cols], buf[:, w1 + w2 : w1 + w2 + width])
        _put(buf, w1 + w2 + width, names, grid.cls[rows, cols])
        del buf  # the padded bytes go before the text is made
        data = data.translate(None, b"\0")
        yield data.decode("ascii")
        r0 = r1


def _put(buf: np.ndarray, start: int, table: np.ndarray, index: np.ndarray):
    """Write table[index] into the columns of buf from start, through a 1-D
    void view of them."""
    buf[:, start : start + table.itemsize].view(table.dtype)[:, 0] = table.take(index)


def _encode_values(x: np.ndarray, out: np.ndarray):
    """Write "%.11e" % x, NUL-padded, into the rows of out, shape (len(x),
    _VALUE_WIDTH).  With e = floor(log10 |x|), y = |x| 10^(11 - e) is within
    3e-4 of its true value (two roundings), so rint(y) is the 12-digit
    mantissa wherever y is not that close to a tie or to 10^12 (a carry into
    the exponent); Python formats those cells, and 0, -0.0, nan, inf and
    |e| >= 100."""
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        fast = np.abs(e) < 100  # False for 0, nan and inf
        e = np.where(fast, e, 0.0).astype(np.int64)
        y = a * _POW10[99 - e]
        m = np.rint(y)
        fast &= (y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.5 - _NEAR_TIE)
    q, g4 = np.divmod(np.where(fast, m, 1e11).astype(np.int64), 1000)
    q, g3 = np.divmod(q, 1000)
    g1, g2 = np.divmod(q, 1000)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    # "-" "D.DD" "DDD" "DDD" "DDD" "e+XX": the NUL after each "DDD" is overwritten
    for start, table, index in (
        (1, _LEAD, g1), (5, _DIGITS, g2), (8, _DIGITS, g3), (11, _DIGITS, g4), (14, _EXPONENT, e + 99)
    ):
        _put(out, start, table, index)
    slow = np.flatnonzero(~fast)
    out.view(f"S{_VALUE_WIDTH}")[slow, 0] = ["%.11e" % v for v in x[slow].tolist()]


def _encode_repr(x: np.ndarray, out: np.ndarray):
    """Write repr(x), or null where x is not finite, NUL-padded, into the rows
    of out, shape (len(x), _JSON_WIDTH): the shortest round-trip digits in
    the positional layout, masked out of "-0.000D.D.D..." by _KEEP.  Python
    formats 0, -0.0, the exponent layout and the non-finite cells."""
    a = np.abs(x)
    fast = np.isfinite(a) & (a > 0)
    d, k = _shortest_digits(np.where(fast, a, 1.0))
    nd = np.searchsorted(_TENS, d, side="right")  # d has nd digits: d 10^k = 0.d 10^dp
    dp = k + nd
    fast &= (dp > -4) & (dp <= 16)
    hi, lo = np.divmod(d * _TENS[17 - nd], 10**9)  # 17 digits, left-aligned
    for g, index in enumerate((hi // 10**6, hi // 1000 % 1000, hi % 1000, lo // 10**6, lo // 1000 % 1000, lo % 1000)):
        _put(out, 4 + 6 * g, _DOTTED, index)  # the first group's "0." is overwritten below
    out[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    sig = 17 - np.argmax(out[:, 38:5:-2] != ord("0"), axis=1)
    out[:, :40] &= _KEEP.take(np.where(fast, dp, 1) * 17 + sig + 50).view(np.uint8).reshape(-1, 40)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    slow = np.flatnonzero(~fast)
    out.view(f"S{_JSON_WIDTH}")[slow, 0] = [repr(v) if math.isfinite(v) else "null" for v in x[slow].tolist()]


@functools.lru_cache(maxsize=1)  # built on first JSON use, about 2 ms
def _pow10_g():
    """Schubfach's g for 10^e, e = -292..324, as (g >> 63, g mod 2^63): g =
    floor(10^e 2^-r) + 1 with r = floor(e log2 10) - 125, so 2^125 < g <= 2^126."""
    er = [(e, (e * 913124641741 >> 38) - 125) for e in range(-292, 325)]
    g = [(10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0)) + 1 for e, r in er]
    return np.array([divmod(v, 2**63) for v in g], dtype=np.uint64).T


def _mulhi(a1: np.ndarray, a0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the products (a1 2^32 + a0) b, uint64, in 32-bit limbs."""
    b1, b0 = b >> 32, b & np.uint64(2**32 - 1)
    t = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (t >> 32) + ((t & np.uint64(2**32 - 1)) + a0 * b1 >> 32)


def _shortest_digits(a: np.ndarray):
    """(d, k): d 10^k is the shortest decimal that rounds to the finite a > 0,
    the nearest to a among those, ties to even d; d may end in zeros.  This is
    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) as in
    Java's DoubleToDecimal, without its two-digit minimum, in uint64."""
    bits = a.view(np.uint64)
    bq, frac = (bits >> 52).astype(np.int64), bits & np.uint64(2**52 - 1)
    c, q = np.where(bq > 0, frac | np.uint64(2**52), frac), np.maximum(bq, 1) - 1075  # a = c 2^q
    irregular = (frac == 0) & (bq > 1)  # a power of two: the gap below is half the gap above
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = (t[292 - k] for t in _pow10_g())
    limbs = g1 >> 32, g1 & np.uint64(2**32 - 1), g0 >> 32, g0 & np.uint64(2**32 - 1)

    def rop(cp):  # cp g 2^-127 rounded to odd, g = g1 2^63 + g0
        z = (g1 * cp >> 1) + _mulhi(*limbs[2:], cp)
        return ((_mulhi(*limbs[:2], cp) + (z >> 63)) | ((z & np.uint64(2**63 - 1)) != 0)).astype(np.int64)

    cb, odd = c << 2, (c & 1).astype(np.int64)  # an odd c leaves out the ends of its rounding interval
    vb, vbl, vbr = rop(cb << h), rop(cb - 2 + irregular.astype(np.uint64) << h), rop(cb + 2 << h)
    s = vb >> 2
    sp = s // 10 * 10  # one digit fewer: sp or sp + 10, if just one of them rounds to a
    upin, wpin = vbl + odd <= sp << 2, (sp + 10 << 2) + odd <= vbr
    uin, win = vbl + odd <= s << 2, (s + 1 << 2) + odd <= vbr
    cmp = vb - (2 * s + 1 << 1)
    lower = np.where(uin != win, uin, (cmp < 0) | (cmp == 0) & (s & 1 == 0))
    return np.where(upin != wpin, np.where(upin, sp, sp + 10), np.where(lower, s, s + 1)), k


def _write(chunks, out: Optional[str]):
    """Write an iterable of strings one at a time, so a grid export is never
    held whole."""
    with open(out, "w", encoding="utf-8", newline="\n") if out else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


@functools.lru_cache(maxsize=1)  # built once per process: it costs about 2 ms
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pnmcore",
        description="Analyze one-parameter families of quantum dynamical maps.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("analyze", "full report: scan, characteristic times, core, measures"),
        ("scan", "export the CPTP region grid"),
        ("core", "extract the PNM core and report its times and measures"),
        ("measures", "measure bundle for the configured evolution"),
        ("eb", "entanglement-breaking onset time"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="JSON config text or file path")
        sp.add_argument("--horizon", type=float, default=None)
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--strict", action="store_true")
    sub.add_parser("catalog", help="list available presets")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "catalog":
        for name in PRESET_NAMES:
            print(name)
        return 0
    try:
        overrides = {"horizon": args.horizon, "grid_points": args.grid}
        cfg = load_config(args.config, strict=args.strict, overrides=overrides)
    except (ParseError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "scan":
            grid = scan_regions(cfg.evolution, cfg.horizon, cfg.grid_points, cfg.scan_tol)
            _write(_export_rows(grid, args.format), args.out)
            return 0
        if args.command == "analyze":
            doc = run_report(cfg)
        elif args.command == "measures":
            ct = characteristic_times(cfg.evolution, cfg.horizon, cfg.grid_points)
            doc = _measures_dict(measure_report(cfg.evolution, cfg.horizon, ct.T))
        elif args.command == "core":
            ct = characteristic_times(cfg.evolution, cfg.horizon, cfg.grid_points)
            if ct.classification != "NNM" or not math.isfinite(ct.T):
                print(
                    f"no core to extract: classification {ct.classification}",
                    file=sys.stderr,
                )
                return 1
            core = extract_pnm_core(cfg.evolution, ct.T)
            h = max(cfg.horizon - ct.T, cfg.horizon / 10)
            doc = {
                "parent_times": _times_dict(ct),
                "core_times": _times_dict(ct.shifted()),
                "core_measures": _measures_dict(measure_report(core, h, 0.0)),
            }
        else:  # eb
            t_eb = eb_time_qubit(cfg.evolution, cfg.horizon, cfg.grid_points)
            doc = {"eb_time": t_eb, "horizon": cfg.horizon}
        _write([_json_doc(doc)], args.out)
    except PnmError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
