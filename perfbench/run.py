"""Seeded benchmark of the `pnmcore` CLI, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pauli-families --seed 1 --seconds 16 --trace 0

Each workload (see workloads.py) is a closed loop with one client: the next
CLI command starts when the previous one has returned.  One op is one
`pnmcore.cli.main([...])` call made in-process; it parses its config and
builds its evolution afresh, and writes to a temporary `--out` file that
checks.py verifies.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s           median of 9 fresh interpreters timing `import pnmcore.cli`
  throughput_ops_s  ops per second of op wall time in the in-process loop
  latency_p50_s     median op wall time
  latency_tail_s    op wall time at TAIL_PERCENTILE (printed with its sample count)
  cli_p50_s         median wall time of the same commands run one at a time
                    as `python -m pnmcore.cli ...` subprocesses, import included
  peak_rss_mb       largest peak RSS of the `python -m pnmcore.cli` processes
                    (resource.getrusage of the children): one command in a
                    fresh process, so neither the checker nor the number of
                    passes that fit in the time moves it, as they moved this
                    process's own peak
  error_rate        failed ops / attempted ops, printed with the metrics and
                    carried by the `attempted` / `failed` fields of the result
Both loops run whole passes over their ops, so every op weighs alike in every
run.  The in-process loop runs passes until --seconds is spent and it has
timed at least MIN_OPS ops; the subprocess loop then runs one pass.  A
pauli-families pass takes about 16 s, so its runs make two in-process passes
and one subprocess pass, 50 to 65 s on a 2-core machine whatever --seconds
is; with one pass its p50 and tail rested on single samples of its eight
ops.

`attempted` counts the workload's distinct ops and `failed` those of them
with any failed execution, in either loop or pass, so both depend only on
the seed, never on how many passes fit in the time.

--trace 1 alternates untraced and traced passes over the workload's ops
and reports per-layer metrics per traced op (tracing.py): self time
(`.s`), calls, evaluation counts, the tracing overhead (traced minus
untraced op wall time) and the share of op time spent in `linalg` and
`measures` self time.  Spans are written to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `correct` is false when any op's output has a hard problem (see
checks.py); soft problems only count the op in `failed`.  Outputs are
checked after each op's timing and span have ended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 16
SETUP_SAMPLES = 9
SUBPROCESS_TIMEOUT = 150
IMPORT_PROBE = "import time; t = time.perf_counter(); import pnmcore.cli; print(time.perf_counter() - t)"

# The highest percentile with at least ten ops beyond it where a run has the
# ops for it: a depolarizing-families run has 48 to 96 ops in two to four
# passes, and p80 of 48 leaves ten beyond.  A scan-export run has 16 to 24
# ops, too few for ten beyond any percentile above the median; there it is
# p75.  A pauli-families run has 16 ops, two of each family, costing about
# 0.7, 1, 1.5, 2 (the two sin(1/t) ones), 3.5 and 5.5 s (cos rates) on a
# 2-core machine.  p75 fell on the slowest sin(1/t) sample and rose by half
# whenever one of them burst or a seed sent a sin(1/t) op down the NNM core
# path (seed 504); p95 falls among the two slowest samples, those of the
# cos-rate op on most seeds, and moves little when another op reaches them.
# The workload `why` strings in BENCHMARK.json state the same percentiles.
TAIL_PERCENTILE = {"pauli-families": 95, "depolarizing-families": 80, "scan-export": 75}

# Metric names and units, from BENCHMARK.json.  The per-layer names are
# <module>.<function>.<quantity>, per traced op.  What each group should move:
# - linalg.*, evolutions.intermediate_map and measures.{flux_series,
#   rhp_measure, eb_time_qubit, measure_report}: latency_p50_s and
#   throughput_ops_s on pauli-families; on depolarizing-families only the
#   dim-2 EB onset uses them;
# - numerics.adaptive_simpson, evolutions.map_eigenvalues, scalar eval_ast
#   calls, evolutions.validate_spec: latency_tail_s on pauli-families, where
#   the pauliRates ops sit; nothing on depolarizing-families;
# - array eval_ast calls, analysis.*, numerics.bisect and
#   measures.revivals_delta: latency_p50_s and throughput_ops_s on
#   depolarizing-families;
# - cli.export_grid: throughput_ops_s and peak_rss_mb on scan-export only;
# - cli.load_config, cli.run_report: small, on every workload.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Loop:
    """Runs ops one at a time, checks each output, and keeps the tallies."""

    def __init__(self, cli, tmp: Path, ops: list):
        self.cli = cli
        self.out = str(tmp / "out")
        self.attempted = len(ops)
        self.executions = 0
        self.hard_failures = 0
        self.failing: dict = {}  # argv of each failed op -> its first problems

    @property
    def failed(self) -> int:
        return len(self.failing)

    def verdict(self, op, rc) -> bool:
        self.executions += 1
        if rc != 0:
            problems = [checks.Problem(f"exit status {rc}")]
        else:
            with open(self.out, encoding="utf-8") as fh:
                problems = checks.check(op, fh)
        if os.path.exists(self.out):
            os.remove(self.out)
        if problems:
            self.hard_failures += any(p.hard for p in problems)
            label = op.ref.get("family", op.ref["kind"])
            message = f"{op.command} {label}: " + "; ".join(p.message for p in problems)
            self.failing.setdefault(tuple(op.argv("")), message)
        return not problems

    def call(self, op) -> tuple:
        """(wall seconds, exit status) of one in-process CLI call."""
        t0 = perf_counter()
        try:
            rc = self.cli.main(op.argv(self.out))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, rc

    def in_process(self, op) -> tuple:
        """(wall seconds, passed) of one in-process CLI call."""
        wall, rc = self.call(op)
        return wall, self.verdict(op, rc)

    def in_subprocess(self, op) -> tuple:
        """(wall seconds, passed) of one `python -m pnmcore.cli` process."""
        cmd = [sys.executable, "-m", "pnmcore.cli", *op.argv(self.out)]
        t0 = perf_counter()
        try:
            rc = subprocess.run(
                cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=SUBPROCESS_TIMEOUT
            ).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        wall = perf_counter() - t0
        return wall, self.verdict(op, rc)


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _passes(run, ops: list, budget: float) -> list:
    """Wall times of whole passes over `ops`, as many as fit in `budget`
    seconds and at least enough for MIN_OPS walls, so every op is weighted
    alike in every run."""
    walls, last = [], 0.0
    start = perf_counter()
    while len(walls) < MIN_OPS or perf_counter() - start + last <= budget:
        pass_start = perf_counter()
        walls += [run(op)[0] for op in ops]
        last = perf_counter() - pass_start
    return walls


def run_untraced(loop: Loop, ops: list, seconds: float, workload: str, info: list) -> dict:
    setup = measure_setup()
    latencies = _passes(loop.in_process, ops, seconds)
    cli_walls = [loop.in_subprocess(op)[0] for op in ops]

    pct = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    beyond = sum(x > tail for x in latencies)
    info.append(f"# latency_tail_s is p{pct} of {len(latencies)} in-process ops ({beyond} beyond it)")
    info.append(f"# in-process latency quartiles {[round(q, 4) for q in statistics.quantiles(latencies)]}")
    info.append(f"# cli_p50_s is the median of {len(cli_walls)} subprocess ops")
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "cli_p50_s": statistics.median(cli_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": setup,
    }


def run_traced(loop: Loop, ops: list, seconds: float, workload: str, info: list) -> dict:
    tracer = tracing.Tracer()
    op_span = tracer.name_index(tracing.OP)
    plain = traced = 0.0
    passes, pair = 0, 0.0
    start = perf_counter()
    # whole untraced + traced pass pairs, as many as fit in the time given
    while passes == 0 or perf_counter() - start + pair <= seconds:
        pair_start = perf_counter()
        for op in ops:
            plain += loop.in_process(op)[0]
        with tracer.installed():
            for op in ops:
                tracer.op_id += 1
                tracer.begin()
                wall, rc = loop.call(op)
                tracer.finish(op_span)  # the op span ends before the check
                traced += wall
                loop.verdict(op, rc)
        passes += 1
        pair = perf_counter() - pair_start
    n = passes * len(ops)
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{workload}.npz"
    tracer.dump(spans)
    info.append(f"# {n} traced and {n} untraced ops; {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")

    op_time = sum(tracer.self_s.values())  # self times partition the op spans
    dense = sum(v for k, v in tracer.self_s.items() if k.startswith(("linalg.", "measures.")))
    metrics = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if name == "trace.overhead_s":
            value = (traced - plain) / n
        elif name == "trace.linalg_measures.share":
            value = dense / op_time
        elif quantity == "calls":
            value = tracer.calls[span] / n
        elif quantity in ("s", "self_s"):
            value = tracer.self_s[span] / n
        else:
            value = tracer.counts[name] / n
        metrics[name] = value
    return metrics


def machine_info(workload: str, seed: int) -> str:
    import numpy

    commit = "unavailable"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "pnmcore").glob("*.py")):
        digest.update(path.read_bytes())
    return (
        f"# machine nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"
        f" commit={commit} src_sha256={digest.hexdigest()[:16]} workload={workload} seed={seed}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "pnmcore" / "cli.py").is_file():
        print(f"error: no pnmcore sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pnmcore import cli

    if Path(cli.__file__).resolve().parent != SRC / "pnmcore":
        print(f"error: imported pnmcore from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    info = [machine_info(args.workload, args.seed)]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        loop = Loop(cli, Path(tmp), ops)
        if args.trace:
            values = run_traced(loop, ops, args.seconds, args.workload, info)
            units = PER_LAYER
        else:
            values = run_untraced(loop, ops, args.seconds, args.workload, info)
            units = END_TO_END
    info.append(f"# {loop.executions} op executions checked; {loop.failed} of {loop.attempted} distinct ops failed")
    info += [f"# failed: {m}" for m in list(loop.failing.values())[:20]]
    for line in info:
        print(line)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    # not in the result line's metrics, whose values must never be 0; the
    # result line carries it as `failed` / `attempted`
    print(f"error_rate {loop.failed / loop.attempted:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": loop.hard_failures == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
