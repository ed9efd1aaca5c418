"""Configs of the golden `pnmcore analyze` reports under tests/golden/.

Regenerate the files (only when a report change is intended and explained
in CHANGES.md) with:

    PYTHONPATH=src python -m tests.golden_configs
"""

import json
from pathlib import Path

from tests.conftest import CATALOG

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CONFIGS = {
    name: {"evolution": {"preset": name, **params}, "horizon": horizon}
    for name, (params, horizon) in CATALOG.items()
}
GOLDEN_CONFIGS.update(
    {
        "rates-cos": {
            "evolution": {"type": "pauliRates", "g_x": "0.5", "g_y": "0.5", "g_z": "0.2+0.6*cos(3*t)"},
            "horizon": 3.5,
        },
        "rates-sin": {
            "evolution": {"type": "pauliRates", "g_x": "1", "g_y": "1", "g_z": "-0.8*sin(1/t)*tanh(t)"},
            "horizon": 3.0,
        },
        "probs": {
            "evolution": {
                "type": "pauliProbs",
                "p_x": "0.1*(1-exp(-t))",
                "p_y": "0.1*(1-exp(-t))",
                "p_z": "0.2*sin(1.2*t)^2",
            },
            "horizon": 4.0,
        },
        "quasi-eternal-prefix": {
            "evolution": {"type": "quasiEternal", "alpha": 1.0, "t0": 0.8, "t_unitary": 0.5},
            "horizon": 4.3,
        },
    }
)


def analyze(config: dict, out: Path) -> None:
    from pnmcore.cli import main

    assert main(["analyze", "--config", json.dumps(config, sort_keys=True), "--out", str(out)]) == 0


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, config in GOLDEN_CONFIGS.items():
        analyze(config, GOLDEN_DIR / f"{name}.json")
        print(name)
