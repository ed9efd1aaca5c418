import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnmcore as p
from pnmcore.analysis import CLASS_NAMES, CptpGrid
from pnmcore.cli import export_grid, load_config, main, run_report
from pnmcore.errors import ParseError, SchemaError


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


def _reference_export(grid, fmt):
    """export_grid as it was before it was vectorized: one Python format
    call per cell; the oracle for the byte-identity test below."""

    def fmt_(x):
        return "nan" if math.isnan(x) else f"{x:.11e}"

    cells = [
        (
            float(grid.times[i]),
            float(grid.times[j]),
            float(grid.value[i, j]),
            CLASS_NAMES[int(grid.cls[i, j])],
        )
        for i in range(grid.n)
        for j in range(i, grid.n)
    ]
    if fmt == "csv":
        lines = ["s,t,value,class"]
        for s, t, v, c in cells:
            lines.append(f"{fmt_(s)},{fmt_(t)},{fmt_(v)},{c}")
        return "\n".join(lines) + "\n"
    doc = {
        "horizon": grid.horizon,
        "n": grid.n,
        "regularized": grid.regularized,
        "cells": [
            {"s": s, "t": t, "value": v if math.isfinite(v) else None, "class": c}
            for s, t, v, c in cells
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# NaN, +-inf, -0.0, subnormals, the extremes of the exponent range
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]
SPECIAL_VALUES += [-1e-300, 1e300, 1.7976931348623157e308]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(16, 40),
    horizon=st.one_of(st.integers(1, 50), st.floats(1e-3, 1e3)),
    regularized=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
)
def test_export_grid_matches_per_cell_reference(n, horizon, regularized, seed, extra):
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_VALUES + extra)
    # random mantissas and exponents from 1e-320 to 1e300, mixed with the pool
    sign = rng.choice([-1.0, 1.0], (n, n))
    value = sign * rng.random((n, n)) * 10.0 ** rng.uniform(-320, 300, (n, n))
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


@pytest.mark.parametrize(
    "config, pointer",
    [
        ('{"evolution":{"preset":"eternal"},"horizon":"abc"}', "/horizon"),
        ('{"evolution":{"preset":"eternal"},"horizon":null}', "/horizon"),
        ('{"evolution":{"preset":"eternal"},"grid_points":"x"}', "/grid_points"),
        ('{"evolution":{"type":"depolarizing","f":"exp(-t)","dim":1}}', "/evolution/dim"),
        ('{"evolution":{"preset":"eternal"},"outputs":"report"}', "/outputs"),
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


def test_grid_points_over_ceiling_exits_1(capsys):
    # rejected before any scan, from the config and from --grid: a
    # 2049-point grid is never built
    over = '{"evolution":{"preset":"eternal"},"grid_points":2049}'
    assert main(["scan", "--config", over]) == 1
    assert "(at /grid_points)" in capsys.readouterr().err
    config = '{"evolution":{"preset":"eternal"},"grid_points":64}'
    assert main(["scan", "--config", config, "--grid", "2049"]) == 1
    assert "(at /grid_points)" in capsys.readouterr().err


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
