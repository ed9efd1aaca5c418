"""`pnmcore analyze` reports against the golden files in tests/golden/,
recorded with the dense superoperator path before the array map-eigenvalue
path replaced it (see tests/golden_configs.py), and `export_grid` output and
the files `pnmcore scan` streams against the digests in
tests/golden/grids.json (see tests/golden_grids.py)."""

import hashlib
import json
import math

import pytest

from pnmcore.cli import main
from tests.golden_configs import GOLDEN_CONFIGS, GOLDEN_DIR, analyze
from tests.golden_grids import GOLDEN_GRIDS, GRIDS_FILE, digests, grid_of

REL_TOL = 1e-9
ROUNDOFF = 1e-12  # values below this (an M_W_av of 1e-16) are rounding noise


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def _leaves(doc, pointer=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{pointer}/{k}")
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _leaves(v, f"{pointer}/{k}")
    else:
        yield pointer, doc


@pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
def test_report_matches_golden(name, tmp_path):
    analyze(GOLDEN_CONFIGS[name], tmp_path / "report.json")
    # strict JSON: a non-finite number would hit parse_constant
    now = dict(_leaves(json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject)))
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    # the golden files predate strict JSON, and hold a divergent rhp as Infinity
    golden = {k: None if v == math.inf else v for k, v in _leaves(golden)}
    assert now.keys() == golden.keys()
    for pointer, want in golden.items():
        got = now[pointer]
        if isinstance(want, float):
            assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ROUNDOFF), (pointer, got, want)
        else:
            assert got == want, (pointer, got, want)


def test_grid_exports_match_golden_digests():
    # sha256 of export_grid in both formats, recorded before export_grid
    # was vectorized; exports are byte-identical, so every digest matches.
    # appendix-f's JSON digest was recorded again when x^2 on arrays became
    # exactly rounded: 35 of its 703 cells, one grid column, moved by an ulp,
    # which its shortest round-trip digits show and CSV's %.11e hides;
    # pathological's JSON digest likewise when the rate integrals' Gauss-Legendre
    # sums took a fixed order: 141 of 703 cells moved by at most 1.7e-16
    golden = json.loads(GRIDS_FILE.read_text())
    assert golden.keys() == GOLDEN_GRIDS.keys()
    for name in GOLDEN_GRIDS:
        assert digests(grid_of(name)) == golden[name], name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_scan_streams_golden_bytes(fmt, tmp_path, capsys):
    # `scan` writes the export row by row, to --out or to stdout
    golden = json.loads(GRIDS_FILE.read_text())
    for name, (preset, horizon, n) in GOLDEN_GRIDS.items():
        config = json.dumps({"evolution": {"preset": preset}, "horizon": horizon, "grid_points": n})
        out = tmp_path / f"{name}.{fmt}"
        assert main(["scan", "--config", config, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[name][fmt], name
        assert main(["scan", "--config", config, "--format", fmt]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == golden[name][fmt], name
