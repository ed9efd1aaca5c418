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
MAX_GRID = 2048  # scan and export memory grow as grid_points**2

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
    if params["dim"] < 2:
        raise SchemaError("dim must be at least 2", "/evolution/dim")
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
_JSON_CELL = '    {\n      "s": %s,\n      "t": %%s,\n      "value": %%s,\n      "class": "%%s"\n    }'

CSV_BLOCK = 8192  # cells per CSV block, rounded up to whole scan rows: bounds its buffers
_NEAR_TIE = 1e-3  # |frac - 1/2| at or below it: the fast digits might round the wrong way
_VALUE_WIDTH = 19  # len("%.11e" % x) is at most 19, as in "-1.79769313486e+308"


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


def export_grid(grid: CptpGrid, fmt: str = "csv") -> str:
    """Serialize the scan grid.

    CSV: rows (s, t, value, class) in row-major order, %.11e (12 significant
    digits, nan/inf tokens).  JSON: the json.dumps(indent=2) layout, repr
    floats, null for a non-finite value."""
    return "".join(_export_rows(grid, fmt))


def _export_rows(grid: CptpGrid, fmt: str):
    """export_grid as a stream of strings: the header, then the cells in
    blocks of whole scan rows (CSV) or one string per scan row made by a
    single %-format (JSON), then the trailer."""
    if fmt == "csv":
        yield "s,t,value,class\n"
        yield from _csv_blocks(grid)
        return
    if fmt != "json":
        raise SchemaError(f"unknown format {fmt!r}", "/format")
    if not np.all(np.isfinite(grid.times)):
        raise ValueError("Out of range float values are not JSON compliant")
    n, stamps = grid.n, [repr(t) for t in grid.times.tolist()]
    names = np.array([CLASS_NAMES[c] for c in range(len(CLASS_NAMES))], dtype=object)
    dump = lambda x: json.dumps(x, allow_nan=False)
    yield _JSON_HEAD % (dump(grid.horizon), dump(n), dump(grid.regularized))
    cells = np.empty((n, 3), dtype=object)  # (t, value, class) of row i in cells[i:]
    cells[:, 0] = stamps
    for i in range(n):
        row, value = cells[i:], grid.value[i, i:]
        row[:, 1] = value
        row[:, 2] = names[grid.cls[i, i:]]
        row[~np.isfinite(value), 1] = "null"
        yield (",\n" if i else "\n") + ",\n".join([_JSON_CELL % stamps[i]] * (n - i)) % tuple(row.ravel())
    yield "\n  ]\n}\n" if n else "]\n}\n"


def _csv_blocks(grid: CptpGrid):
    """The CSV lines of the s <= t cells, one ASCII string per block of about
    CSV_BLOCK cells.  A block's lines are built in one (cells, width) byte
    matrix, field by field from tables, with NUL padding that one compress
    strips."""
    n, stamps = grid.n, ["%.11e," % t for t in grid.times.tolist()]
    w, stamps = max(map(len, stamps), default=0), _words(stamps)
    names = _words(",%s\n" % CLASS_NAMES[c] for c in range(len(CLASS_NAMES)))
    starts = np.concatenate([[0], np.cumsum(np.arange(n, 0, -1))])  # first cell of each row
    r0 = 0
    while r0 < n:
        r1 = min(n, int(np.searchsorted(starts, starts[r0] + CSV_BLOCK)))
        rows, cols = np.nonzero(np.arange(n) >= np.arange(r0, r1)[:, None])
        rows += r0
        # fields left to right: the padding words of one spill into the next
        buf = np.zeros((len(rows), 2 * w + _VALUE_WIDTH + names.itemsize), dtype=np.uint8)
        _put(buf, 0, stamps, rows)
        _put(buf, w, stamps, cols)
        _encode_values(grid.value[rows, cols], buf[:, 2 * w : 2 * w + _VALUE_WIDTH])
        _put(buf, 2 * w + _VALUE_WIDTH, names, grid.cls[rows, cols])
        flat = buf.ravel()
        yield flat[flat != 0].tobytes().decode("ascii")
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
