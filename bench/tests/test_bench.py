"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest bench/tests -q
(under a minute: each workload runs one full pass).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stabnet  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PINNED = json.loads((BENCH / "expected" / "digests.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_seed_gives_pinned_digests(name):
    workload = workloads.WORKLOADS[name]
    seed = PINNED[name]["seed"]
    first, second = workload.generate(seed), workload.generate(seed)
    assert first.canonical == second.canonical
    assert _sha(first.canonical) == PINNED[name]["input_sha256"]
    outputs, _, _ = run.run_pass(workload, first.ops)
    renders = [run._render(workload, op, out) for op, out in zip(first.ops, outputs)]
    assert _sha("\n".join(renders)) == PINNED[name]["output_sha256"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs_not_sizes(name):
    workload = workloads.WORKLOADS[name]
    a, b = workload.generate(1), workload.generate(2)
    assert a.canonical != b.canonical
    assert a.sizes == b.sizes
    assert len(a.ops) == len(b.ops)


def _bindings() -> dict:
    """Every attribute of every stabnet module and class, by identity."""
    seen = {}
    for module in tracing.stabnet_modules():
        for key, value in vars(module).items():
            seen[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    seen[(module.__name__, key, attr)] = member
    return seen


def test_tracer_patches_every_target_and_restores_all():
    workload = workloads.WORKLOADS["cli-fixtures"]
    commands = list(dict.fromkeys(workload.generate(1).ops))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {attr for _, attr, _ in tracer._patched}
        assert patched >= {attr.split(".")[-1] for _, _, attr in tracing.TARGETS}
        outputs, _, _ = run.run_pass(workload, commands)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert all(not isinstance(out, Exception) for out in outputs)
    values = tracer.layer_values()
    called = {name for name in tracer.stats if values[f"{name}.calls"]}
    # the README commands reach every traced function except tree lowering
    assert called == set(tracer.stats) - {"network.to_contraction"}
    # every traced call runs inside cli.main, so self times add up to its busy time
    assert tracer.self_time_total() == pytest.approx(values["cli.main.s"])


def test_traced_counts_repeat_for_a_seed():
    workload = workloads.WORKLOADS["compose-sweep"]
    ops = workload.generate(7).ops[:30]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(workload, ops)
        finally:
            tracer.uninstall()
        values = tracer.layer_values()
        counts.append({k: v for k, v in values.items() if not k.endswith((".s", ".self_s"))})
    assert counts[0] == counts[1]
    assert counts[0]["codes.distance.calls"] == 30 * len(workloads.RING_SIZES)
    assert counts[0]["contraction.kernel_dim"] > 0


def test_speedometer_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.002) as meter:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) > 2
    assert meter.spent >= sum(meter.samples)
    speeds = [speed.REFERENCE_KERNEL_S / sample for sample in meter.samples[1:]]
    assert meter.scale(1) == pytest.approx(statistics.fmean(speeds))
    # an interval without samples takes the latest one
    assert meter.scale(len(meter.samples)) == speed.REFERENCE_KERNEL_S / meter.samples[-1]


def test_run_pass_leaves_out_sampling_time():
    meter = types.SimpleNamespace(spent=0.0)

    def sampled_op(op):
        meter.spent += 10.0  # as if the meter had sampled for 10 s inside the op

    stub = workloads.Workload("stub", None, sampled_op, None, None)
    _, latencies, wall = run.run_pass(stub, [1, 2], meter)
    assert all(-10.0 < latency < -9.9 for latency in latencies)
    assert -20.0 < wall < -19.9


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    result = _result(
        _bench("--workload", "cli-fixtures", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "mesh-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _small_tree(relays: str, convention: str):
    tree = workloads._tree(random.Random(5), 2, 3, relays, convention)
    return tree, workloads._tree_run([tree])


def _flip_signs(result):
    gens = tuple(g.negated() for g in result.residual.generators)
    residual = stabnet.StabilizerGroup(result.residual.n, gens)
    return stabnet.ContractionResult(result.status, residual, result.boundary, 0)


@pytest.mark.parametrize("relays, convention", [("repetition", "plus-pair"), ("graph", "graph-edge")])
def test_tree_check_catches_wrong_signs(relays, convention):
    tree, results = _small_tree(relays, convention)
    assert reference.check_tree([tree], results, random.Random(0)) == []
    (inst, result), = results
    flipped = [(inst, _flip_signs(result))]
    assert reference.check_tree([tree], flipped, random.Random(0))


def test_mesh_check_catches_a_wrong_min_cut():
    mesh = workloads.WORKLOADS["mesh-sweep"].generate(4).ops[0]
    small = workloads.Mesh(mesh.topology, mesh.clients[:6], stabnet.GraphState.cycle(6))
    verdict = stabnet.feasibility(mesh.topology, small.clients, small.target)
    assert reference.check_mesh(small, verdict, random.Random(0)) == []
    rows = tuple(
        type(r)(r.a, r.b, r.min_cut + 1, r.required_rank) for r in verdict.table
    )
    wrong = type(verdict)(True, None, rows)
    assert reference.check_mesh(small, wrong, random.Random(0))
