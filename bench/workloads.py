"""Seeded inputs, timed operations and canonical outputs of the workloads.

Each workload turns a seed into inputs with stabnet's public constructors,
runs one operation at a time through stabnet's public entry points, and
renders each output as canonical text for the output digest.  Entry points
are always looked up on the module at call time (``stabnet.contract``, not a
local alias), so the traced run sees the calls it patches.

Importing this module imports stabnet, so run.py puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import stabnet

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"


@dataclass
class Inputs:
    """Generated inputs: the op list, its canonical text and its sizes."""

    ops: list
    canonical: str
    sizes: dict


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Inputs]
    run: Callable[[Any], Any]  # one timed op
    work: Callable[[Any, Any], int]  # work units of one op, from input and output
    render: Callable[[Any, Any], str]  # canonical text of one output


def _connected_graph(rng: random.Random, n: int, edge_prob: float) -> stabnet.GraphState:
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
        ]
        graph = stabnet.GraphState.from_edges(n, edges)
        if graph.is_connected():
            return graph


# -- tree-contract ----------------------------------------------------------

# (connectivity n, depth p, relay states, Bell convention)
TREES = (
    (2, 9, "repetition", "plus-pair"),
    (2, 8, "graph", "graph-edge"),
    (3, 5, "graph", "plus-pair"),
    (4, 4, "graph", "graph-edge"),
)


@dataclass(frozen=True)
class Tree:
    n: int
    p: int
    relays: str
    convention: str
    topology: stabnet.NetworkTopology
    assignment: dict
    qubits: int  # qubits of the lowered instance


def _tree(rng: random.Random, n: int, p: int, relays: str, convention: str) -> Tree:
    topology = stabnet.RegularTreeSpec(n, p).as_topology()
    degree = dict.fromkeys(topology.node_ids, 0)
    for u, v, channels in topology.edges:
        degree[u] += channels
        degree[v] += channels
    assignment = {}
    for relay in topology.relays:
        if relays == "repetition":
            assignment[relay] = stabnet.repetition_state(degree[relay])
        else:
            graph = _connected_graph(rng, degree[relay], 0.5)
            assignment[relay] = stabnet.stabilizer_generators(graph)
    # every channel is a Bell pair; every relay port is one more qubit
    qubits = 2 * sum(c for _, _, c in topology.edges) + sum(
        degree[r] for r in topology.relays
    )
    return Tree(n, p, relays, convention, topology, assignment, qubits)


def _tree_generate(seed: int) -> Inputs:
    rng = random.Random(seed)
    trees = [_tree(rng, *spec) for spec in TREES]
    canonical = json.dumps(
        [
            {
                "n": t.n,
                "p": t.p,
                "convention": t.convention,
                "relays": {r: g.to_strings() for r, g in t.assignment.items()},
            }
            for t in trees
        ],
        sort_keys=True,
    )
    sizes = {
        "trees": len(trees),
        "qubits": sum(t.qubits for t in trees),
        "relays": sum(len(t.assignment) for t in trees),
    }
    # one op lowers and contracts the whole tree set
    return Inputs([tuple(trees)], canonical, sizes)


def _tree_run(trees: tuple[Tree, ...]) -> list:
    results = []
    for t in trees:
        inst, _ = stabnet.to_contraction(t.topology, t.assignment, t.convention)
        results.append((inst, stabnet.contract(inst)))
    return results


def _tree_render(trees, results) -> str:
    return "\n".join(result.to_json() for _, result in results)


# -- mesh-sweep -------------------------------------------------------------

MESH_RELAYS = 8
MESH_CLIENTS = 16
MESH_EXTRA_EDGES = 4
CORE_CHANNELS = 8  # >= MESH_CLIENTS // 2, so every bipartition passes
TARGET_EDGES = 36  # about 0.3 of the 120 client pairs


@dataclass(frozen=True)
class Mesh:
    topology: stabnet.NetworkTopology
    clients: tuple[str, ...]
    target: stabnet.GraphState


def _mesh_generate(seed: int) -> Inputs:
    """A random spanning tree of relays carrying CORE_CHANNELS channels per
    edge, a few extra relay edges, and one channel from each client to a
    relay.  Cutting any core edge costs at least CORE_CHANNELS, and keeping
    the relays together costs min(|A|, |B|), which bounds every
    entanglement rank, so the sweep is feasible and yields the whole table.

    Every relay serves the same number of clients, and the target has
    TARGET_EDGES edges.  With clients on random relays and edges drawn
    independently, a sweep's cost varied by 7% between seeds; this halves
    that, so that runs at different seeds measure the same work."""
    rng = random.Random(seed)
    relays = [f"r{i}" for i in range(MESH_RELAYS)]
    clients = [f"c{i}" for i in range(MESH_CLIENTS)]
    edges = [(relays[rng.randrange(i)], relays[i], CORE_CHANNELS) for i in range(1, MESH_RELAYS)]
    linked = {frozenset(e[:2]) for e in edges}
    while len(linked) < MESH_RELAYS - 1 + MESH_EXTRA_EDGES:
        u, v = rng.sample(relays, 2)
        if frozenset((u, v)) not in linked:
            linked.add(frozenset((u, v)))
            edges.append((u, v, rng.randint(1, CORE_CHANNELS)))
    homes = relays * (MESH_CLIENTS // MESH_RELAYS)
    rng.shuffle(homes)
    edges.extend((relay, c, 1) for relay, c in zip(homes, clients))
    nodes = [(r, "relay") for r in relays] + [(c, "client") for c in clients]
    topology = stabnet.NetworkTopology(tuple(nodes), tuple(edges))
    pairs = [(u, v) for u in range(MESH_CLIENTS) for v in range(u + 1, MESH_CLIENTS)]
    while True:
        target = stabnet.GraphState.from_edges(MESH_CLIENTS, rng.sample(pairs, TARGET_EDGES))
        if target.is_connected():
            break
    mesh = Mesh(topology, topology.clients, target)
    canonical = json.dumps(
        {"topology": json.loads(topology.to_json()), "target": target.to_bitstring()},
        sort_keys=True,
    )
    sizes = {
        "clients": MESH_CLIENTS,
        "relays": MESH_RELAYS,
        "edges": len(edges),
        "bipartitions": 2 ** (MESH_CLIENTS - 1) - 1,
    }
    return Inputs([mesh], canonical, sizes)


def _mesh_run(mesh: Mesh):
    return stabnet.feasibility(mesh.topology, mesh.clients, mesh.target)


def _mesh_render(mesh, verdict) -> str:
    """sha256 of the verdict, one line per table row.  Rows are hashed as
    they are read, so rendering adds no memory peak beyond the sweep's."""
    digest = hashlib.sha256(f"feasible={verdict.feasible}\n".encode())
    for r in verdict.table:
        row = f"{','.join(r.a)}|{','.join(r.b)}|{r.min_cut}|{r.required_rank}|{r.ok}\n"
        digest.update(row.encode())
    return digest.hexdigest()


# -- compose-sweep ----------------------------------------------------------

COMPOSITIONS = 1500
# One op composes one ring of each size.  With one ring per op, latency
# had one mode per ring size, and the median op fell between modes and
# moved by 10% between runs.
RING_SIZES = (3, 4, 5)
WEIGHT_CAP = 4
CODE_SIZE = 5


@dataclass(frozen=True)
class Composition:
    code: stabnet.StabilizerCode
    m: int  # codes in the ring
    pairings: tuple[tuple[int, int], ...]
    convention: str


def _compose_generate(seed: int) -> Inputs:
    """Rings of five-qubit codes: code j glues one of its two random ports
    to a random port of code j+1.  Ring sizes cycle through RING_SIZES, and
    one op is one cycle, so every op has the same size mix; ports and
    convention are random."""
    rng = random.Random(seed)
    code = stabnet.five_qubit_code()
    rings = []
    for i in range(COMPOSITIONS):
        m = RING_SIZES[i % len(RING_SIZES)]
        ports = [rng.sample(range(CODE_SIZE), 2) for _ in range(m)]
        pairings = tuple(
            (CODE_SIZE * j + ports[j][1], CODE_SIZE * ((j + 1) % m) + ports[(j + 1) % m][0])
            for j in range(m)
        )
        convention = rng.choice(("plus-pair", "graph-edge"))
        rings.append(Composition(code, m, pairings, convention))
    canonical = json.dumps([[c.m, c.pairings, c.convention] for c in rings])
    sizes = {"compositions": len(rings), "codes": sum(c.m for c in rings)}
    step = len(RING_SIZES)
    ops = [tuple(rings[i : i + step]) for i in range(0, len(rings), step)]
    return Inputs(ops, canonical, sizes)


def _compose_run(rings: tuple[Composition, ...]) -> list:
    results = []
    for c in rings:
        composed = stabnet.compose([c.code] * c.m, c.pairings, c.convention)
        results.append((composed, stabnet.distance(composed, WEIGHT_CAP)))
    return results


def _compose_render(rings, results) -> str:
    return "\n".join(f"{composed.to_json()} {d}" for composed, d in results)


# -- cli-fixtures -----------------------------------------------------------

CLI_REPEATS = 125


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # with fixture paths made absolute
    exit_code: int
    stdout: str


def load_cli_expected() -> list[dict]:
    """The README commands with the exit code and stdout each must give."""
    return json.loads((EXPECTED_DIR / "cli.json").read_text())


def _absolute(arg: str) -> str:
    return str(ROOT / arg) if arg.startswith("fixtures/") else arg


def _cli_generate(seed: int) -> Inputs:
    importlib.import_module("stabnet.cli")
    expected = [
        Command(tuple(_absolute(a) for a in e["argv"]), e["exit"], e["stdout"])
        for e in load_cli_expected()
    ]
    for command in expected:
        for arg in command.argv:
            if arg.startswith(str(ROOT)) and not Path(arg).is_file():
                raise FileNotFoundError(f"missing fixture {arg}")
    ops = expected * CLI_REPEATS
    random.Random(seed).shuffle(ops)
    root = str(ROOT)
    canonical = json.dumps([[a.replace(root, "", 1) for a in c.argv] for c in ops])
    return Inputs(ops, canonical, {"commands": len(ops), "distinct": len(expected)})


def _cli_run(command: Command) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = stabnet.cli.main(list(command.argv))
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    return code, out.getvalue()


def _cli_render(command, output) -> str:
    code, stdout = output
    return f"{code}\n{stdout}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree-contract",
            _tree_generate,
            _tree_run,
            lambda trees, _: sum(t.qubits for t in trees),
            _tree_render,
        ),
        Workload(
            "mesh-sweep",
            _mesh_generate,
            _mesh_run,
            lambda _, verdict: len(verdict.table),
            _mesh_render,
        ),
        Workload(
            "compose-sweep",
            _compose_generate,
            _compose_run,
            lambda rings, _: 2 * len(rings),  # a composition and a distance per ring
            _compose_render,
        ),
        Workload(
            "cli-fixtures",
            _cli_generate,
            _cli_run,
            lambda _c, _o: 1,
            _cli_render,
        ),
    )
}
