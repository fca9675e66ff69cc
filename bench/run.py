"""stabnet benchmark: one workload, one seed, one closed-loop caller.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` directory; nothing is installed.  The inputs come
from the seed alone.  Ops run one at a time in one thread, in passes over
the workload's op list: one untimed warm-up pass, then timed passes until
``--seconds`` of them have run.  Times are reported at a reference host
speed, measured by ``speed.Speedometer`` while the passes run.

Every output is checked: the warm-up pass against references that share
no code with the timed engines (``reference.py``), later passes against
the warm-up pass.
At the pinned seed the input and output digests must also equal the ones
in ``expected/digests.json``.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the timed passes are followed by one traced pass, and the metrics are
the per-layer ones.  The line before it holds the details: digests, input
sizes, pass counts and errors (and the traced call tree).

Exit codes: 0 with a result line, 2 when the checkout cannot be
benchmarked (no ``src/stabnet``, unknown workload).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "expected" / "digests.json"

DEFAULT_SEED = 1  # the seed whose digests are pinned
SETUP_PROBES = 7  # fresh-interpreter set-ups per run; setup_s is their median
P99_TAIL = 10  # p99 is reported only with at least this many samples beyond it

TRACED_METRICS = (
    "contraction.contract.calls",
    "contraction.contract.s",
    "contraction.contract.self_s",
    "contraction.rows",
    "contraction.kernel_dim",
    "contraction.boundary",
    "gf2.left_kernel.calls",
    "gf2.left_kernel.s",
    "pauli.product.calls",
    "pauli.product.s",
    "pauli.reduce_generators.s",
    "network.to_contraction.s",
    "network.min_cut.calls",
    "network.min_cut.s",
    "graphstate.entanglement_rank.calls",
    "graphstate.entanglement_rank.s",
    "gf2.rank_packed.calls",
    "gf2.rank_packed.s",
    "graphstate.bipartitions.s",
    "network.feasibility.self_s",
    "codes.distance.calls",
    "codes.distance.s",
    "codes.compose.s",
    "gf2.Eliminator.solve.calls",
    "gf2.Eliminator.add.calls",
    "pauli.StabilizerGroup.init.calls",
    "pauli.StabilizerGroup.init.s",
    "cli.main.calls",
    "cli.main.self_s",
    "metrics.channel_count.s",
)
SOURCE_MODULES = (
    "cli", "codes", "contraction", "gf2", "graphstate", "metrics", "network", "oracle", "pauli",
)


UNITS = {"trace.overhead_ratio": "ratio", "trace.coverage": "ratio", "op.p99_ms": "ms"}


def _unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, measured inside it: at the
    reference host speed, and as wall time."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe_setup.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    scaled, wall = map(float, done.stdout.split()[-2:])
    return scaled, wall


def _render(workload, op, output) -> str:
    if isinstance(output, Exception):
        return f"error {type(output).__name__}: {output}"
    return workload.render(op, output)


def run_pass(workload, ops: list, meter=None) -> tuple[list, list[float], float]:
    """Run every op once; an op that raises yields its exception.

    With a ``speed.Speedometer`` running, every time returned leaves out
    the time the meter spent sampling inside it."""
    outputs = []
    latencies = []
    perf = time.perf_counter
    spent = (lambda: meter.spent) if meter else (lambda: 0.0)
    pass_spent = spent()
    begin = perf()
    for op in ops:
        op_spent = spent()
        start = perf()
        try:
            outputs.append(workload.run(op))
        except Exception as exc:  # a failed op is counted, not fatal
            outputs.append(exc)
        latencies.append(perf() - start - (spent() - op_spent))
    return outputs, latencies, perf() - begin - (spent() - pass_spent)


class Measurement:
    """Timed passes with their outputs checked, until ``seconds`` are timed."""

    def __init__(self, workload, inputs, seed: int, check_pass) -> None:
        self.workload = workload
        self.check_pass = check_pass  # reference checks of pass 1, per op
        self.ops = inputs.ops
        self.rng = random.Random(f"check-{seed}")
        self.first_renders: list[str] | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.work = 0  # work units of successful ops in timed passes
        self.walls: list[float] = []  # timed passes, sampling time left out
        self.scales: list[float] = []  # each timed pass's speed.Speedometer.scale
        self.latencies: list[float] = []  # successful ops only, at reference speed
        self.rates: list[float] = []  # work per second of each timed pass, at reference speed

    def run(self, seconds: float) -> None:
        """One untimed warm-up pass, then timed passes until ``seconds``."""
        gc.collect()
        self.record(run_pass(self.workload, self.ops)[0])
        with speed.Speedometer() as meter:
            # stop where the timed total lands nearest to ``seconds``
            while not self.walls or sum(self.walls) + statistics.median(self.walls) / 2 < seconds:
                gc.collect()
                first = len(meter.samples)
                outputs, latencies, wall = run_pass(self.workload, self.ops, meter)
                scale = meter.scale(first, len(meter.samples))
                self.walls.append(wall)
                self.scales.append(scale)
                work = 0
                for op, output, latency in zip(self.ops, outputs, latencies):
                    if not isinstance(output, Exception):
                        work += self.workload.work(op, output)
                        self.latencies.append(latency * scale)
                self.work += work
                self.rates.append(work / (wall * scale))
                self.record(outputs)

    def record(self, outputs: list) -> None:
        """Count and check one pass of outputs."""
        renders = [_render(self.workload, op, out) for op, out in zip(self.ops, outputs)]
        if self.first_renders is None:
            self.first_renders = renders
            valid = [None if isinstance(out, Exception) else out for out in outputs]
            per_op = self.check_pass(self.workload.name, self.ops, valid, self.rng)
        else:
            per_op = [[] if r == ref else ["output differs from pass 1"]
                      for r, ref in zip(renders, self.first_renders)]
        for i, (output, errors) in enumerate(zip(outputs, per_op)):
            if isinstance(output, Exception):
                errors = [renders[i]]
            if errors:
                self.failed += 1
                self.errors.extend(f"op {i}: {e}" for e in errors)
        self.attempted += len(outputs)

    def output_digest(self) -> str:
        return _sha("\n".join(self.first_renders or []))


def traced_pass(measurement: Measurement):
    """One pass with every traced function patched; outputs are checked too."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs, _, wall = run_pass(measurement.workload, measurement.ops)
    finally:
        tracer.uninstall()
    measurement.record(outputs)
    return tracer, wall


def source_metrics(stabnet) -> dict[str, float]:
    values = {}
    total = 0
    for path in sorted((SRC / "stabnet").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        if path.stem in SOURCE_MODULES:
            values[f"{path.stem}.src_lines"] = lines
    for module in SOURCE_MODULES:
        values.setdefault(f"{module}.src_lines", 0)
    values["package.src_lines"] = total
    values["package.exports"] = len(stabnet.__all__)
    return values


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile, or 0.0 without P99_TAIL samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.99 * len(ordered))
    if len(ordered) - rank < P99_TAIL:
        return 0.0
    return ordered[rank - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stabnet" / "__init__.py").is_file():
        return _fail(f"no stabnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import reference  # before any timed pass, so its imports add no peak later
    import stabnet
    import workloads

    if not Path(stabnet.__file__).resolve().is_relative_to(SRC.resolve()):
        return _fail(f"stabnet was imported from {stabnet.__file__}, not {SRC}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}")
    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]

    inputs = workload.generate(args.seed)
    measurement = Measurement(workload, inputs, args.seed, reference.check_pass)
    measurement.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "sizes": inputs.sizes,
        "input_sha256": _sha(inputs.canonical),
        "output_sha256": measurement.output_digest(),
        "passes": len(measurement.walls),
        "pass_s": [round(w, 4) for w in measurement.walls],
        "pass_speed_scale": [round(s, 4) for s in measurement.scales],
    }
    digests_ok = True
    pinned = json.loads(PINNED.read_text()).get(workload.name, {})
    if args.seed == pinned.get("seed", DEFAULT_SEED):
        digests_ok = (pinned.get("input_sha256"), pinned.get("output_sha256")) == (
            detail["input_sha256"],
            detail["output_sha256"],
        )
        detail["pinned_digests_match"] = digests_ok

    if args.trace:
        tracer, traced_wall = traced_pass(measurement)
        layer = tracer.layer_values()
        values = {name: layer[name] for name in TRACED_METRICS}
        values.update(source_metrics(stabnet))
        values["trace.overhead_ratio"] = traced_wall / statistics.median(measurement.walls)
        values["trace.coverage"] = tracer.self_time_total() / traced_wall
        values["op.p99_ms"] = p99(measurement.latencies) * 1e3
        values["op.samples"] = len(measurement.latencies)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
        detail["traced_wall_s"] = round(traced_wall, 4)
        detail["call_tree"] = tracer.edge_table()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setup_samples), "unit": "s"},
            "work_per_s": {"value": statistics.median(measurement.rates), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(measurement.latencies) * 1e3, "unit": "ms"}
            if measurement.latencies
            else {"value": 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail["setup_s"] = [round(s, 4) for s, _ in setup_samples]
        detail["wall_setup_s"] = [round(w, 4) for _, w in setup_samples]
        detail["wall_work_per_s"] = measurement.work / sum(measurement.walls)
        detail["op_samples"] = len(measurement.latencies)

    detail["errors"] = measurement.errors[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": measurement.failed == 0 and digests_ok,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
