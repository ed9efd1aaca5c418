"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pnmcore import cli  # noqa: E402


def _bindings():
    """Identity of every attribute of every pnmcore module and evolution class."""
    out = {}
    for ns in tracing.pnmcore_modules():
        for attr, value in vars(ns).items():
            out[(ns.__name__, attr)] = value
            if isinstance(value, type):
                for k, v in vars(value).items():
                    out[(ns.__name__, attr, k)] = v
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 11) == workloads.generate(name, 11)
    assert workloads.generate(name, 11) != workloads.generate(name, 12)
    # the seed draws parameters, never the mix of commands, grids and formats
    shape = lambda ops: [(o.command, o.fmt, o.config["grid_points"], o.ref["kind"]) for o in ops]
    assert shape(workloads.generate(name, 11)) == shape(workloads.generate(name, 12))


def test_wrappers_restore_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.scan_regions is not before[("pnmcore.cli", "scan_regions")]
            import pnmcore.evolutions as ev

            assert vars(ev.PauliRates)["map_eigenvalues"] is not before[
                ("pnmcore.evolutions", "PauliRates", "map_eigenvalues")
            ]
            raise RuntimeError("leave the context by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _check(op, text):
    return checks.check(op, io.StringIO(text))


def test_metric_names_and_tail_percentiles_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(run.TAIL_PERCENTILE) == set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    for w in spec["workloads"]:
        assert re.findall(r"\bp(\d+)\b", w["why"]) == [str(run.TAIL_PERCENTILE[w["name"]])]
    assert list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    assert list(run.PER_LAYER) == [m["name"] for m in spec["per_layer"]]


def test_failed_counts_distinct_ops_not_executions(tmp_path):
    ops = workloads.generate("depolarizing-families", 3)[:2]
    bad = ops[1].argv(str(tmp_path / "out"))

    class Stub:
        @staticmethod
        def main(argv):
            return 1 if argv == bad else cli.main(argv)

    loop = run.Loop(Stub, tmp_path, ops)
    for _ in range(3):
        for op in ops:
            loop.in_process(op)
    # a run's tallies do not depend on how many passes fit in its time
    assert (loop.attempted, loop.failed, loop.executions, loop.hard_failures) == (2, 1, 6, 3)


def _first(workload, kind):
    return next(op for op in workloads.generate(workload, 3) if op.ref["kind"] == kind)


@pytest.mark.parametrize(
    "op",
    [_first("pauli-families", "quasiEternal"), _first("depolarizing-families", "depolarizing")],
    ids=["pauli", "depolarizing"],
)
def test_traced_and_untraced_reports_are_byte_identical(op, tmp_path):
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(op.argv(str(plain))) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(op.argv(str(traced))) == 0
    assert plain.read_bytes() == traced.read_bytes()
    assert tracer.calls["cli.run_report"] == 1
    assert tracer.calls["analysis.scan_regions"] == 1
    # self times partition the traced time: none is negative
    assert min(tracer.self_s.values()) >= 0


def test_checks_reject_wrong_outputs(tmp_path):
    op = _first("depolarizing-families", "depolarizing")
    out = tmp_path / "report.json"
    assert cli.main(op.argv(str(out))) == 0
    doc = json.loads(out.read_text())
    assert _check(op, json.dumps(doc)) == []

    shifted = json.loads(json.dumps(doc))
    shifted["times"]["tau"] += 0.1
    problems = _check(op, json.dumps(shifted))
    assert problems and all(p.hard for p in problems)  # published paper-example times

    unordered = json.loads(json.dumps(doc))
    unordered["times"]["T"] = unordered["times"]["t_star"] + 1
    assert any(p.hard and "ordering" in p.message for p in _check(op, json.dumps(unordered)))


def test_checks_grid_tau_against_fine_reference(tmp_path):
    op = next(o for o in workloads.generate("depolarizing-families", 3) if o.ref["family"] == "damped")
    out = tmp_path / "report.json"
    assert cli.main(op.argv(str(out))) == 0
    doc = json.loads(out.read_text())
    assert _check(op, json.dumps(doc)) == []
    doc["times"]["tau"] += 3 * op.config["horizon"] / op.config["grid_points"]
    problems = _check(op, json.dumps(doc))
    assert problems and not any(p.hard for p in problems)


def test_scan_checks_count_rows_and_cell_values(tmp_path):
    op = next(o for o in workloads.generate("scan-export", 3) if o.fmt == "csv")
    out = tmp_path / "grid.csv"
    assert cli.main(op.argv(str(out))) == 0
    text = out.read_text()
    assert _check(op, text) == []
    lines = text.splitlines()
    assert _check(op, "\n".join(lines[:-1]) + "\n")[0].hard
    s, t, v, c = lines[1].split(",")
    wrong = "\n".join([lines[0], f"{s},{t},{float(v) + 1e-3:.11e},{c}", *lines[2:]]) + "\n"
    assert any("reference" in p.message for p in _check(op, wrong))


def _report(op, tau, classification="NNM"):
    return json.dumps({"times": {"T": None, "tau": tau, "t_star": None}, "classification": classification})


def test_tau_misses_are_soft_only_near_the_grid_or_on_known_limit_families():
    ops = workloads.generate("pauli-families", 3)
    cos = next(o for o in ops if o.ref.get("family") == "cos")
    sin = next(o for o in ops if o.ref.get("family") == "sin")
    for op in (cos, sin):
        ref_tau = checks.reference_tau(op.ref, op.config["horizon"])
        assert 0 < ref_tau < op.config["horizon"]
        assert _check(op, _report(op, ref_tau)) == []
    h, n = cos.config["horizon"], cos.config["grid_points"]
    ref_tau = checks.reference_tau(cos.ref, h)
    near = _check(cos, _report(cos, ref_tau + 2 * h / (n - 1)))
    assert near and not any(p.hard for p in near)
    far = _check(cos, _report(cos, ref_tau + 1.0))
    assert far and all(p.hard for p in far)
    markovian = _check(cos, _report(cos, None, "Markovian"))
    assert markovian and all(p.hard for p in markovian)
    # sin(1/t) rates flip sign ever faster towards t = 0: no grid resolves them
    sin_tau = checks.reference_tau(sin.ref, sin.config["horizon"])
    sin_far = _check(sin, _report(sin, sin_tau + 1.0))
    assert sin_far and not any(p.hard for p in sin_far)


def test_json_scan_checks_count_cells_and_values(tmp_path):
    op = next(o for o in workloads.generate("scan-export", 3) if o.fmt == "json" and o.ref["kind"] == "quasiEternal")
    out = tmp_path / "grid.json"
    assert cli.main(op.argv(str(out))) == 0
    text = out.read_text()
    assert _check(op, text) == []
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    assert _check(op, compact) == []
    doc = json.loads(text)
    doc["cells"].pop()
    assert _check(op, json.dumps(doc))[0].hard
    doc = json.loads(text)
    doc["cells"][0]["value"] += 1e-3
    assert any("reference" in p.message for p in _check(op, json.dumps(doc)))
