import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore import exprparse, linalg
from pnmcore.analysis import CLASS_NAMES, REFINE_XTOL, CptpGrid
from pnmcore.cli import MAX_HORIZON, _JSON_WIDTH, _encode_repr, _json_doc, export_grid, load_config, main, run_report
from pnmcore.errors import ParseError, SchemaError
from tests.golden_configs import GOLDEN_CONFIGS


def test_load_config_preset_defaults():
    cfg = load_config('{"evolution":{"preset":"paper-example"}}')
    assert isinstance(cfg.evolution, p.Depolarizing)
    assert cfg.horizon == 5.0
    assert cfg.grid_points == 400


def test_load_config_typed_depolarizing():
    cfg = load_config('{"evolution":{"type":"depolarizing","dim":2,"f":"exp(-t)"}}')
    assert isinstance(cfg.evolution, p.Depolarizing)
    assert abs(cfg.evolution.f_at(1.0) - math.exp(-1.0)) < 1e-12


def test_load_config_quasi_eternal_below_threshold():
    with pytest.raises(SchemaError):
        load_config('{"evolution":{"type":"quasiEternal","alpha":0.1,"t0":1.0}}')


def test_load_config_errors():
    with pytest.raises(ParseError):
        load_config("{not json")
    with pytest.raises(SchemaError):
        load_config('{"horizon": 2.0}')  # missing evolution
    with pytest.raises(SchemaError):
        load_config('{"evolution":{"preset":"nope"}}')
    with pytest.raises(SchemaError):
        load_config('{"evolution":{"type":"depolarizing","f":"foo(t)"}}')
    with pytest.raises(SchemaError):
        load_config('{"evolution":{"preset":"eternal"},"horizon":-1}')


def test_load_config_strict_vs_lenient(capsys):
    text = '{"evolution":{"preset":"eternal"},"bogus":1}'
    with pytest.raises(SchemaError):
        load_config(text, strict=True)
    cfg = load_config(text, strict=False)
    assert "bogus" in capsys.readouterr().err
    assert isinstance(cfg.evolution, p.QuasiEternal)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"evolution":{"preset":"eternal"},"horizon":3.0}')
    cfg = load_config(str(path))
    assert cfg.horizon == 3.0


def test_run_report_paper_example():
    cfg = load_config('{"evolution":{"preset":"paper-example"},"horizon":2.5}')
    doc = run_report(cfg)
    assert doc["classification"] == "NNM"
    assert abs(doc["times"]["T"] - 0.275) < 0.005
    assert abs(doc["core"]["measures"]["M_D"] - 0.983) < 0.01
    assert abs(doc["core"]["measures"]["M_mix"] - 0.329) < 0.005
    assert doc["composition_rule_violations"] == 0


def test_run_report_paper_example_evaluates_f_at_most_120_times(monkeypatch):
    # every refinement evaluates f in array rounds: 16 one-time and 70 array
    # evaluations, from 268 and 66 when it took one probe at a time; a call
    # counts once whether it is given one time or many
    calls = []
    evaluate = exprparse.eval_ast
    monkeypatch.setattr(exprparse, "eval_ast", lambda node, t: calls.append(np.size(t)) or evaluate(node, t))
    doc = run_report(load_config('{"evolution": {"preset": "paper-example"}}'))
    assert doc["classification"] == "NNM" and "core" in doc
    assert len(calls) <= 120


def test_run_report_eternal():
    cfg = load_config('{"evolution":{"preset":"eternal"},"horizon":3.0,"grid_points":100}')
    doc = run_report(cfg)
    assert doc["classification"] == "PNM"
    assert doc["times"]["T"] == 0.0
    assert doc["times"]["tau"] == 0.0
    assert doc["times"]["t_star"] == 0.0


def test_run_report_markovian():
    cfg = load_config(
        '{"evolution":{"type":"depolarizing","f":"exp(-t)"},"horizon":3.0,"grid_points":64}'
    )
    doc = run_report(cfg)
    assert doc["classification"] == "Markovian"
    assert doc["times"]["T"] is None
    assert doc["measures"]["delta"] == 0.0


@pytest.mark.parametrize("params, horizon", [({}, 5.0), ({"t0": 4.0}, 40.0)], ids=["defaults", "golden"])
def test_run_report_quasi_eternal_core_is_pnm_with_the_parent_rhp(params, horizon):
    # at the preset's defaults (t0 = t0_alpha, h = 5) and the golden config the
    # core V_{t+T,T} is PNM, and the RHP measure sums only the backflow past T
    cfg = load_config(json.dumps({"evolution": {"preset": "quasi-eternal", **params}, "horizon": horizon}))
    doc = run_report(cfg)
    assert doc["classification"] == "NNM"
    assert doc["core"]["recomputed_times"]["T"] == 0.0
    T = doc["times"]["T"]
    core = p.extract_pnm_core(cfg.evolution, T)
    h = max(cfg.horizon - T, cfg.horizon / 10)
    assert p.characteristic_times(core, h, cfg.grid_points).classification == "PNM"
    assert math.isclose(doc["core"]["measures"]["rhp"], doc["measures"]["rhp"], rel_tol=1e-9)


@pytest.mark.parametrize("preset, horizon", [("paper-example", 5.0), ("appendix-f", 6.0), ("eternal", 5.0), ("pathological", 5.0)])
def test_run_report_holds_no_grid(preset, horizon):
    # the composition count and min_choi fold the scan a block of rows at a
    # time: at n = 2048 one float64 grid would be 32 MiB
    cfg = load_config(json.dumps({"evolution": {"preset": preset}, "horizon": horizon, "grid_points": 2048}))
    tracemalloc.start()
    try:
        run_report(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_run_report_deterministic():
    cfg = load_config('{"evolution":{"preset":"eternal"},"horizon":2.0,"grid_points":64}')
    a = json.dumps(run_report(cfg), sort_keys=True)
    b = json.dumps(run_report(cfg), sort_keys=True)
    assert a == b


def test_export_grid_csv_shape():
    e = p.Depolarizing(p.ScalarFn.constant(1.0))
    grid = p.scan_regions(e, 1.0, 16)
    text = export_grid(grid, "csv")
    lines = text.split("\n")
    assert lines[0] == "s,t,value,class"
    # upper-triangular cell count plus header and trailing newline
    assert len(lines) == 1 + 16 * 17 // 2 + 1
    assert text.endswith("\n")
    assert "\r" not in text
    assert all(line.endswith("CPTP") for line in lines[1:-1])


def test_export_grid_row_major_and_digits():
    e = p.make_preset("paper-example")
    grid = p.scan_regions(e, 2.5, 32)
    lines = export_grid(grid, "csv").strip().split("\n")[1:]
    s_values = [float(line.split(",")[0]) for line in lines]
    assert s_values == sorted(s_values)  # s is the outer loop
    mantissa = lines[1].split(",")[2]
    assert "e" in mantissa  # 12 significant digits in scientific notation
    assert len(mantissa.split("e")[0].replace("-", "").replace(".", "")) == 12


def test_export_grid_contains_landmark_cell():
    e = p.make_preset("paper-example")
    grid = p.scan_regions(e, 2.5, 400)
    lines = export_grid(grid, "csv").strip().split("\n")[1:]
    hit = [
        line
        for line in lines
        if abs(float(line.split(",")[0]) - 0.495) < 0.01
        and abs(float(line.split(",")[1]) - 1.040) < 0.01
        and abs(float(line.split(",")[2]) + 0.241) < 0.005
    ]
    assert hit


def test_export_grid_json_roundtrip():
    e = p.Depolarizing(p.ScalarFn.constant(1.0))
    grid = p.scan_regions(e, 1.0, 16)
    doc = json.loads(export_grid(grid, "json"))
    assert doc["n"] == 16
    assert len(doc["cells"]) == 16 * 17 // 2


# json.dumps(indent=2) of the export document, as literal templates
_REFERENCE_HEAD = '{\n  "horizon": %s,\n  "n": %s,\n  "regularized": %s,\n  "cells": [\n'
_REFERENCE_CELL = '    {\n      "s": %r,\n      "t": %r,\n      "value": %s,\n      "class": "%s"\n    }'


def _reference_cells(grid):
    """(s, t, value, class name) of the s <= t cells in row-major order."""
    times, value, cls = grid.times.tolist(), grid.value.tolist(), grid.cls.tolist()
    return [
        (times[i], times[j], value[i][j], CLASS_NAMES[cls[i][j]])
        for i in range(grid.n)
        for j in range(i, grid.n)
    ]


def _reference_export(grid, fmt):
    """export_grid as it was before it was vectorized: one Python format
    call per cell; the oracle for the byte-identity test below.  The JSON
    layout is that of json.dumps(indent=2), filled in cell by cell (the
    pure-Python encoder that indent selects takes seconds on a 200-point
    grid); test_reference_json_layout_is_json_dumps pins the two together."""

    cells = _reference_cells(grid)
    if fmt == "csv":  # "%.11e" writes any NaN as nan, whatever its sign
        return "".join(["s,t,value,class\n"] + ["%.11e,%.11e,%.11e,%s\n" % cell for cell in cells])
    head = _REFERENCE_HEAD % tuple(json.dumps(x) for x in (grid.horizon, grid.n, grid.regularized))
    body = ",\n".join(_REFERENCE_CELL % (s, t, repr(v) if math.isfinite(v) else "null", c) for s, t, v, c in cells)
    return head + body + "\n  ]\n}\n"


def test_reference_json_layout_is_json_dumps():
    value = np.array([[0.0, -0.0, math.nan], [math.nan, 1e-300, math.inf], [math.nan, math.nan, -2.5e16]])
    cls = np.array([[0, 1, 2], [0, 1, 2], [0, 0, 1]], dtype=np.int8)
    for horizon, regularized in ((2.5, False), (7, True), (1e120, False)):
        grid = CptpGrid(horizon, 3, np.linspace(0.0, horizon, 3), value, cls, regularized)
        doc = {
            "horizon": horizon,
            "n": 3,
            "regularized": regularized,
            "cells": [
                {"s": s, "t": t, "value": v if math.isfinite(v) else None, "class": c}
                for s, t, v, c in _reference_cells(grid)
            ],
        }
        assert _reference_export(grid, "json") == json.dumps(doc, indent=2, allow_nan=False) + "\n"


# NaN, +-inf, -0.0, subnormals, the extremes of the exponent range
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]
SPECIAL_VALUES += [-1e-300, 1e300, 1.7976931348623157e308]


def _export_values(kind, rng, n):
    """(n, n) cell values that stress one part of the CSV or JSON value encoder."""
    sign = rng.choice([-1.0, 1.0], (n, n))
    if kind == "wide":  # 1e-320 to 1e300: mostly Python's own formatting
        return sign * rng.random((n, n)) * 10.0 ** rng.uniform(-320, 300, (n, n))
    if kind == "fast":  # 1e-11 to 1e33: the table path, 10^(11 - e) exact for e <= 11
        return sign * rng.random((n, n)) * 10.0 ** rng.uniform(-10, 34, (n, n))
    if kind == "ties":
        # k / 2^(12 - d), k odd, in [10^d, 10^(d+1)): 13 significant digits
        # ending in 5, an exact tie at the 12th digit (4097/4096 = 1.000244140625)
        d = rng.integers(-3, 12, (n, n))
        lo = 10.0**d * 2.0 ** (12 - d)
        k = 2 * np.floor(rng.uniform(lo, 10 * lo) / 2) + 1
        return sign * k / 2.0 ** (12 - d)
    if kind == "short":  # few digits, positional in repr, integer-valued where rounded to 0 places
        return np.round(sign * rng.random((n, n)) * 10.0 ** rng.integers(-3, 17, (n, n)), rng.integers(0, 6))
    mantissa = rng.integers(10**11, 10**12, (n, n)).ravel().tolist()
    exponent = rng.integers(-99, 100, (n, n)).ravel().tolist()
    if kind == "near-ties":  # decimal ties the nearest double misses by under an ulp
        text = [f"{str(m)[0]}.{str(m)[1:]}5e{e}" for m, e in zip(mantissa, exponent)]
    else:  # "carries": 9.99999999999Xe, rounding into the next power of ten or not
        text = [f"9.99999999999{m % 10}{m % 7}e{e}" for m, e in zip(mantissa, exponent)]
    return sign * np.array([float(t) for t in text]).reshape(n, n)


# a failing example is reported as drawn: shrinking 200-row grids takes minutes
@settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    # a CSV block holds 8192 cells: 127 rows make 8128 cells, 128 make 8256;
    # a JSON block holds 4096: 90 rows make 4095, 91 make 4186
    n=st.one_of(st.integers(16, 40), st.sampled_from([90, 91, 127, 128, 129, 200])),
    # a horizon of 1e120 mixes 2- and 3-digit exponents in the time stamps
    horizon=st.one_of(st.integers(1, 50), st.floats(1e-3, 1e3), st.sampled_from([1e99, 1e120, 1e-120])),
    regularized=st.booleans(),
    kind=st.sampled_from(["wide", "fast", "ties", "near-ties", "carries", "short"]),
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
)
def test_export_grid_matches_per_cell_reference(n, horizon, regularized, kind, seed, extra):
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_VALUES + extra)
    value = _export_values(kind, rng, n)
    pick = rng.random((n, n)) < 0.3
    value[pick] = rng.choice(pool, pick.sum())
    value[np.tril_indices(n, -1)] = np.nan
    grid = CptpGrid(
        horizon=horizon,
        n=n,
        times=np.linspace(0.0, horizon, n),
        value=value,
        cls=rng.integers(0, len(CLASS_NAMES), (n, n)).astype(np.int8),
        regularized=regularized,
    )
    for fmt in ("csv", "json"):
        assert export_grid(grid, fmt) == _reference_export(grid, fmt), fmt


# the ends of the subnormals, powers of two (a narrower gap below), the
# positional / exponent switches of repr, 15- to 17-digit and integer values
ENCODER_EDGES = [5e-324, 1e-323, 1.5e-323, 2.225073858507201e-308, 2.2250738585072014e-308]
ENCODER_EDGES += [2.0**k for k in (-1074, -1022, -1, 0, 1, 52, 53, 54, 1023)] + [1.7976931348623157e308]
ENCODER_EDGES += [1e-4, 9.999999999999999e-05, 1.0000000000000001e-4, 1e-5, 1e16, 9999999999999998.0, 1e17]
ENCODER_EDGES += [0.1, 0.3, 2 / 3, 0.123456789012345, 0.1234567890123456, 0.12345678901234568, 1 / 3 * 1e-3]
ENCODER_EDGES += [1.0, 2.0, 100.0, 123456.0, 9007199254740991.0, 9007199254740992.0, 1e15, 1e22, 5e-5]
ENCODER_EDGES += [0.0, math.nan, math.inf]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from(ENCODER_EDGES), min_size=1, max_size=64), negate=st.booleans())
def test_json_value_encoder_matches_repr(values, negate):
    x = np.array(values) * (-1.0 if negate else 1.0)
    x = np.concatenate([x, ENCODER_EDGES, np.negative(ENCODER_EDGES)])
    out = np.zeros((len(x), _JSON_WIDTH), dtype=np.uint8)
    _encode_repr(x, out)
    got = [bytes(row).replace(b"\0", b"").decode("ascii") for row in out]
    assert got == [repr(v) if math.isfinite(v) else "null" for v in x.tolist()]


def test_export_grid_rejects_unknown_format():
    grid = p.scan_regions(p.make_preset("eternal"), 1.0, 16)
    with pytest.raises(SchemaError):
        export_grid(grid, "xml")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in p.PRESET_NAMES:
        assert name in out
    # config error
    assert main(["analyze", "--config", "{bad"]) == 1
    # numeric-failure path: f hits zero, core undefined horizon etc is fine,
    # so force an expression that breaks validation downstream
    rc = main(
        [
            "scan",
            "--config",
            '{"evolution":{"preset":"eternal"},"horizon":2.0,"grid_points":32}',
            "--out",
            str(tmp_path / "grid.csv"),
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    assert (tmp_path / "grid.csv").read_text().startswith("s,t,value,class")


def test_cli_analyze_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze",
            "--config",
            '{"evolution":{"preset":"eternal"}}',
            "--horizon",
            "2.0",
            "--grid",
            "64",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "PNM"
    assert doc["config"]["horizon"] == 2.0


def test_analyze_builds_no_dense_map(tmp_path, monkeypatch):
    # every report comes from map eigenvalues: building a d^2 x d^2 map fails it
    def refuse(self):
        raise AssertionError("analyze built a dense superoperator")

    monkeypatch.setattr(linalg.Superoperator, "__post_init__", refuse)
    configs = [*GOLDEN_CONFIGS.values(), {"evolution": {"preset": "paper-example", "dim": 32}}]
    for config in configs:
        assert main(["analyze", "--config", json.dumps(config), "--out", str(tmp_path / "report.json")]) == 0


def test_cli_byte_determinism(tmp_path):
    args = [
        "analyze",
        "--config",
        '{"evolution":{"preset":"paper-example"},"horizon":2.5,"grid_points":64}',
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_core_rejects_non_nnm(capsys):
    rc = main(
        ["core", "--config", '{"evolution":{"preset":"eternal"},"horizon":2.0,"grid_points":64}']
    )
    assert rc == 1
    assert "no core" in capsys.readouterr().err


def test_cli_eb(capsys):
    rc = main(
        [
            "eb",
            "--config",
            '{"evolution":{"type":"depolarizing","f":"exp(-t)"},"horizon":3.0}',
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["eb_time"] - math.log(3.0)) < 5e-3


# every catalog preset and a typed family of each evolution type
VIEW_CONFIGS = {
    **{name: {"evolution": {"preset": name}} for name in p.PRESET_NAMES},
    "depolarizing": {"evolution": {"type": "depolarizing", "f": "exp(-0.25*t)*(1-0.3+0.3*cos(3*t))"}, "horizon": 4},
    **{name: GOLDEN_CONFIGS[name] for name in ("quasi-eternal-prefix", "rates-cos", "probs")},
}

# command -> (the part of the analyze report it needs, its view of the report)
VIEWS = {
    "core": (
        "core",
        lambda d: {"parent_times": d["times"], "core_times": d["core"]["times"], "core_measures": d["core"]["measures"]},
    ),
    "measures": ("measures", lambda d: d["measures"]),
    "eb": ("measures", lambda d: {"eb_time": d["measures"]["eb_time"], "horizon": d["config"]["horizon"]}),
}


@pytest.mark.parametrize("grid", [200, 400])
@pytest.mark.parametrize("name", VIEW_CONFIGS)
def test_views_print_their_part_of_the_analyze_report(name, grid, capsys):
    argv = ["--config", json.dumps(VIEW_CONFIGS[name]), "--grid", str(grid)]
    assert main(["analyze", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    for command, (part, view) in VIEWS.items():
        rc = main([command, *argv])
        out, err = capsys.readouterr()
        if part in doc:
            assert (rc, out) == (0, _json_doc(view(doc))), command
        else:  # core on a non-NNM family
            assert (rc, out) == (1, ""), command
            assert err.startswith(f"no {part} ") and err.endswith(f"classification {doc['classification']}\n")


@pytest.mark.parametrize("command", ["core", "measures", "eb"])
def test_unitary_family_has_no_views(command, capsys):
    # a UnitaryTrivial report has neither a core nor measures
    config = '{"evolution":{"type":"depolarizing","f":"1"},"grid_points":64}'
    assert main([command, "--config", config]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("classification UnitaryTrivial\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["analyze", "core", "measures", "eb"])
def test_format_is_read_only_by_scan(command, fmt, capsys):
    config = '{"evolution":{"preset":"paper-example"},"grid_points":64}'
    assert main([command, "--config", config, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and "(at /format)" in err


def test_eb_at_dim_3_is_an_unsupported_dimension(capsys):
    config = '{"evolution":{"preset":"paper-example","dim":3},"grid_points":64}'
    assert main(["eb", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "UnsupportedDimension" in err


@pytest.mark.parametrize(
    "config, pointer",
    [
        ('{"evolution":{"preset":"eternal"},"horizon":"abc"}', "/horizon"),
        ('{"evolution":{"preset":"eternal"},"horizon":null}', "/horizon"),
        ('{"evolution":{"preset":"eternal"},"grid_points":"x"}', "/grid_points"),
        ('{"evolution":{"type":"depolarizing","f":"exp(-t)","dim":1}}', "/evolution/dim"),
        ('{"evolution":{"type":"depolarizing","f":"exp(-t)","dim":33}}', "/evolution/dim"),
        ('{"evolution":{"preset":"paper-example","dim":1000000}}', "/evolution/dim"),
        ('{"evolution":{"preset":"eternal"},"tolerances":{"scan":"x"}}', "/tolerances/scan"),
        ('{"evolution":{"type":"quasiEternal","alpha":"x","t0":1}}', "/evolution/alpha"),
        ('{"evolution":{"preset":"eternal"},"tolerances":{"scan":-1}}', "/tolerances/scan"),
    ],
)
def test_bad_config_values_exit_1_with_pointer(config, pointer, capsys):
    assert main(["analyze", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"(at {pointer})" in err


def test_strict_rejects_the_removed_outputs_field(capsys):
    config = '{"evolution":{"preset":"eternal"},"outputs":["report"]}'
    assert main(["analyze", "--config", config, "--strict"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config fields: ['outputs']")
    assert "(at /)" in err


def test_horizon_over_ceiling_is_rejected_after_the_override():
    assert MAX_HORIZON == 1e4
    config = '{"evolution":{"preset":"eternal"},"horizon":%s}'
    assert load_config(config % 1e4).horizon == 1e4
    for text, override in ((config % 2e4, None), (config % 5, 1.5e4)):
        with pytest.raises(SchemaError) as exc:
            load_config(text, overrides={"horizon": override})
        assert exc.value.pointer == "/horizon"
    # the --horizon override replaces a horizon over the ceiling before the check
    assert load_config(config % 1e6, overrides={"horizon": 5.0}).horizon == 5.0


def test_grid_points_over_ceiling_exits_1(capsys):
    # rejected before any scan, from the config and from --grid: a
    # 2049-point grid is never built
    over = '{"evolution":{"preset":"eternal"},"grid_points":2049}'
    assert main(["scan", "--config", over]) == 1
    assert "(at /grid_points)" in capsys.readouterr().err
    config = '{"evolution":{"preset":"eternal"},"grid_points":64}'
    assert main(["scan", "--config", config, "--grid", "2049"]) == 1
    assert "(at /grid_points)" in capsys.readouterr().err


def test_quasi_eternal_with_tiny_alpha_is_analysed(capsys):
    # 2^(1/alpha) overflows in the validity threshold t0(alpha); its log form
    # does not, and agrees with the old expression where both are finite
    config = '{"evolution":{"type":"quasiEternal","alpha":1e-300,"t0":1e300}}'
    assert main(["analyze", "--config", config]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _strict_json(out)["classification"] == "Markovian"
    assert p.t0_alpha(1e-300) == pytest.approx(math.log(2.0) / 2e-300)
    assert p.t0_alpha(1 / 1023.5) == pytest.approx(1023.5 * math.log(2.0) / 2.0, rel=1e-15)
    a = 1 / 1022.9
    assert p.t0_alpha(a) == math.log(2.0 ** (1.0 / a) - 1.0) / 2.0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["analyze", "measures", "core"])
def test_divergent_rhp_is_written_as_null(command, capsys):
    # f of appendix-f passes through zero, so its RHP integral diverges
    config = '{"evolution":{"preset":"appendix-f"},"horizon":5.0,"grid_points":100}'
    assert main([command, "--config", config]) == 0
    doc = _strict_json(capsys.readouterr().out)
    measures = {"analyze": doc.get("measures"), "measures": doc, "core": doc.get("core_measures")}
    assert measures[command]["rhp"] is None


def test_eternal_rhp_at_long_horizon_is_finite(capsys):
    # lambda_z = exp(-2t) underflows to 0 near t = 354; the measure works
    # with log-eigenvalues, so it stays exact: ln cosh h
    config = '{"evolution":{"preset":"eternal"},"horizon":400}'
    assert main(["analyze", "--config", config]) == 0
    rhp = _strict_json(capsys.readouterr().out)["measures"]["rhp"]
    assert math.isclose(rhp, math.log(math.cosh(400.0)), rel_tol=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "evolution, horizon",
    [
        ({"preset": "eternal"}, 400),
        ({"type": "quasiEternal", "alpha": 0.1, "t0": 4}, 4000),
        ({"preset": "eternal"}, 800),
    ],
)
def test_long_horizon_analyze_is_silent(evolution, horizon, capsys):
    # a Pauli eigenvalue underflows to 0 in all three; the scan must not
    # print an overflow warning while it fills the s <= t cells, and past
    # alpha t ~ 710 lambda_x = lambda_y must not read 0 * inf
    config = json.dumps({"evolution": evolution, "horizon": horizon})
    assert main(["analyze", "--config", config]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _strict_json(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "evolution, horizon",
    [
        ({"type": "depolarizing", "f": "exp(t*1000)"}, 2),  # f overflows: tau's derivative reads inf - inf
        ({"type": "pauliRates", "g_x": "1e308", "g_y": "0", "g_z": "0"}, 5),  # the rate integrals overflow
    ],
)
def test_overflowing_family_exits_2_without_a_warning(evolution, horizon, capsys):
    config = json.dumps({"evolution": evolution, "horizon": horizon})
    assert main(["analyze", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "f",
    [
        "(" * 3000 + "exp(-t)" + ")" * 3000,
        "-" * 5000 + "exp(-t)",
        "+".join(["exp(-t)"] * 3000),  # a flat chain makes a deep tree
    ],
)
def test_deeply_nested_expression_exits_1_with_pointer(f, capsys):
    config = json.dumps({"evolution": {"type": "depolarizing", "f": f}})
    assert main(["analyze", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "nested deeper than 200 levels" in err
    assert "(at /evolution/f)" in err
    assert "Traceback" not in err


def test_parser_is_built_once_per_process(capsys):
    from pnmcore.cli import _parser

    assert _parser() is _parser()
    assert main(["catalog"]) == 0 and main(["catalog"]) == 0
    assert capsys.readouterr().out == "".join(f"{name}\n" for name in p.PRESET_NAMES) * 2


def _analyze_depolarizing(f, horizon, capsys):
    """(exit code, report or None, stderr) of `analyze` on a typed depolarizing family."""
    config = json.dumps({"evolution": {"type": "depolarizing", "f": f}, "horizon": horizon})
    rc = main(["analyze", "--config", config])
    out, err = capsys.readouterr()
    return rc, json.loads(out) if rc == 0 else None, err


def test_kink_zero_prints_nothing_on_stderr(capsys):
    # f = |1 - t| falls to 0 at t = 1, a detection-grid time at horizon 3,
    # and rises: f' = sign(0) = 0 there, so the rate is 0 / 0 and the turn is
    # that sample, where ln|f| = -inf.  The zero search misses the kink, yet
    # rhp still diverges, and no RuntimeWarning is raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, doc, err = _analyze_depolarizing("abs(1-t)", 3, capsys)
    assert rc == 0 and err == ""
    assert abs(doc["times"]["tau"] - 1.0) <= REFINE_XTOL  # f's first rise, 1.00003
    assert doc["measures"]["delta"] == 2.0 and doc["measures"]["rhp"] is None


@pytest.mark.parametrize(
    "f, horizon, message",
    [
        # f is NaN past t = 5/3: f' is not finite at the first grid time there
        ("sqrt(1-0.6*t)", 2.5, "NonFiniteResult: derivative not finite at t=1.6"),
        # f' = +inf at t = 0, from sqrt(t)
        ("exp(-t)+0.3*sqrt(t)*exp(-2*t)", 3, "NonFiniteResult: derivative not finite at t=0.0"),
    ],
)
def test_derivative_not_finite_before_the_first_rise_exits_2(f, horizon, message, capsys):
    rc, _, err = _analyze_depolarizing(f, horizon, capsys)
    assert rc == 2 and message in err


def test_kinks_of_abs_keep_a_finite_derivative(capsys):
    # f' = e^-t (-|cos 2t| - 2 sign(cos 2t) sin 2t): finite at the kinks too
    rc, doc, err = _analyze_depolarizing("exp(-t)*abs(cos(2*t))", 3, capsys)
    assert rc == 0 and err == "" and doc["classification"] == "NNM"
    assert abs(doc["times"]["tau"] - math.pi / 4) <= REFINE_XTOL
