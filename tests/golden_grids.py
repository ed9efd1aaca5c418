"""Scan grids whose `export_grid` output is pinned, by sha256, in
tests/golden/grids.json.

Regenerate the digests (only when an export change is intended and
explained in CHANGES.md) with:

    PYTHONPATH=src python -m tests.golden_grids
"""

import hashlib
import json

import pnmcore as p
from pnmcore.cli import export_grid
from tests.golden_configs import GOLDEN_DIR

GRIDS_FILE = GOLDEN_DIR / "grids.json"

# name -> (preset, horizon, grid points)
GOLDEN_GRIDS = {
    "paper-example": ("paper-example", 2.5, 32),
    "appendix-f": ("appendix-f", 6.0, 37),  # regularized, one Undefined cell
    "eternal": ("eternal", 3.0, 37),  # mostly NonCPTP
    "pathological": ("pathological", 3.0, 37),  # pauliRates
    "unitary-prefix": ("unitary-prefix", 5.0, 40),
}
FORMATS = ("csv", "json")


def grid_of(name: str) -> "p.CptpGrid":
    preset, horizon, n = GOLDEN_GRIDS[name]
    return p.scan_regions(p.make_preset(preset), horizon, n)


def digests(grid) -> dict:
    return {fmt: hashlib.sha256(export_grid(grid, fmt).encode()).hexdigest() for fmt in FORMATS}


if __name__ == "__main__":
    doc = {name: digests(grid_of(name)) for name in GOLDEN_GRIDS}
    GRIDS_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(GRIDS_FILE)
