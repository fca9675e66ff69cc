"""Output checks that share no code with stabnet's engines.

The Pauli algebra and GF(2) elimination here are written from scratch:
an operator is ``(x, z, c)`` meaning ``i**c * X**x Z**z`` (all X factors
before all Z factors), so products need only ``c1 + c2 + 2|z1 & x2|``.
stabnet's signed form ``i**phase * (letters with Y = iXZ)`` converts by
``c = phase + |x & z|``.  Min-cuts are checked against networkx.

Every check returns a list of error strings; an empty list means pass.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import networkx as nx

import stabnet
import workloads

SAMPLED_GENERATORS = 12  # residual generators re-derived per graph-relay tree
SAMPLED_ROWS = 48  # feasibility rows re-derived per sweep
SAMPLED_DISTANCES = 6  # compose ops whose distances are re-derived per pass


def _c(op) -> int:
    """Exponent of ``op`` (a stabnet PauliOperator) in the X-then-Z form."""
    return (op.phase + (op.x & op.z).bit_count()) % 4


def _mul(a, b):
    xa, za, ca = a
    xb, zb, cb = b
    return xa ^ xb, za ^ zb, (ca + cb + 2 * (za & xb).bit_count()) % 4


def _commute(a, b) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


class _Basis:
    """Row reduction pivoting on the highest set bit, with witness masks."""

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}
        self.count = 0

    def reduce(self, row: int, mask: int = 0) -> tuple[int, int]:
        while row:
            top = row.bit_length() - 1
            hit = self.pivots.get(top)
            if hit is None:
                break
            row ^= hit[0]
            mask ^= hit[1]
        return row, mask

    def add(self, row: int) -> int | None:
        """None if ``row`` is independent, else the mask of rows XOR-ing to 0."""
        row, mask = self.reduce(row, 1 << self.count)
        self.count += 1
        if row:
            self.pivots[row.bit_length() - 1] = (row, mask)
            return None
        return mask


def _rank(rows) -> int:
    basis = _Basis()
    for row in rows:
        basis.add(row)
    return len(basis.pivots)


def _group_errors(gens, n: int, expected_count: int) -> list[str]:
    """Hermitian, pairwise commuting, independent, expected_count of them."""
    errors = []
    ops = [(g.x, g.z, _c(g)) for g in gens]
    if len(ops) != expected_count:
        errors.append(f"{len(ops)} generators, expected {expected_count}")
    for g in gens:
        if g.phase not in (0, 2):
            errors.append(f"generator {g} is not Hermitian")
            break
    if not all(_commute(a, b) for a, b in combinations(ops, 2)):
        errors.append("generators do not commute")
    if _rank(x | (z << n) for x, z, _ in ops) != len(ops):
        errors.append("generators are dependent")
    return errors


# -- tree-contract ----------------------------------------------------------


def _ghz_errors(tree, result) -> list[str]:
    """The repetition tree under plus-pair must leave the client GHZ state:
    a pure group whose every generator stabilizes |0..0> + |1..1>, which
    holds iff x is all-zero or all-one, |z| is even and c = 0 (mod 4)."""
    clients = len(tree.topology.clients)
    if result.status.value != "PURE":
        return [f"status {result.status.value}, expected PURE"]
    errors = _group_errors(result.residual.generators, clients, clients)
    full = (1 << clients) - 1
    for g in result.residual.generators:
        if g.x not in (0, full) or g.z.bit_count() % 2 or _c(g) != 0:
            errors.append(f"{g} does not stabilize the client GHZ state")
            break
    return errors


def _instance_ops(inst) -> list[tuple[int, int, int]]:
    """Node generators, then Bell generators, as global (x, z, c) triples."""
    ops = []
    for group, offset in zip(inst.node_states, inst.offsets):
        for g in group.generators:
            ops.append((g.x << offset, g.z << offset, _c(g)))
    for i, j in inst.pairings:
        pair = (1 << i) | (1 << j)
        if inst.convention.value == "plus-pair":  # +XX, +ZZ
            ops += [(pair, 0, 0), (0, pair, 0)]
        else:  # graph-edge: +XZ, +ZX
            ops += [(1 << i, 1 << j, 0), (1 << j, 1 << i, 0)]
    return ops


def _tree_errors(tree, inst, result, rng: random.Random) -> list[str]:
    """Re-derive a PURE residual from the raw generators.

    Every product of generators that is the identity pattern must be +I
    (otherwise the projection annihilates the state), and each sampled
    residual generator, lifted to the global qubits, must equal a product
    of generators with the same sign.  Bell projections on a tree only
    teleport, so PURE is the only correct status here.
    """
    clients = len(tree.topology.clients)
    if result.status.value != "PURE":
        return [f"status {result.status.value}, expected PURE"]
    if len(result.boundary) != clients:
        return [f"boundary of {len(result.boundary)} qubits, expected {clients}"]
    errors = _group_errors(result.residual.generators, clients, clients)
    n = inst.total_qubits
    if n != tree.qubits:
        errors.append(f"lowered instance has {n} qubits, expected {tree.qubits}")
    ops = _instance_ops(inst)
    basis = _Basis()
    for x, z, _ in ops:
        relation = basis.add(x | (z << n))
        if relation is not None and _combine(ops, relation)[2] != 0:
            errors.append("a product of generators is -I: the state is annihilated")
            break
    boundary = result.boundary
    sample = rng.sample(result.residual.generators, min(SAMPLED_GENERATORS, clients))
    for g in sample:
        x = z = 0
        for k, q in enumerate(boundary):
            x |= ((g.x >> k) & 1) << q
            z |= ((g.z >> k) & 1) << q
        rest, mask = basis.reduce(x | (z << n))
        if rest:
            errors.append(f"residual generator {g} is not generated by the network")
        elif _combine(ops, mask) != (x, z, _c(g)):
            errors.append(f"residual generator {g} has the wrong sign")
    return errors


def _combine(ops, mask: int):
    acc = (0, 0, 0)
    while mask:
        low = mask & -mask
        acc = _mul(acc, ops[low.bit_length() - 1])
        mask ^= low
    return acc


def check_tree(trees, results, rng: random.Random) -> list[str]:
    errors = []
    for tree, (inst, result) in zip(trees, results):
        check = _ghz_errors(tree, result) if tree.relays == "repetition" else _tree_errors(
            tree, inst, result, rng
        )
        errors += [f"tree ({tree.n},{tree.p}): {e}" for e in check]
    return errors


# -- mesh-sweep -------------------------------------------------------------


def _nx_min_cut(topology, a, b) -> int:
    graph = nx.Graph()
    for u, v, channels in topology.edges:
        previous = graph.get_edge_data(u, v, {"capacity": 0})["capacity"]
        graph.add_edge(u, v, capacity=previous + channels)
    for side, terminal in ((a, "__source"), (b, "__sink")):
        for client in side:
            graph.add_edge(terminal, client)  # no capacity attribute: unbounded
    return int(nx.minimum_cut_value(graph, "__source", "__sink"))


def check_mesh(mesh, verdict, rng: random.Random) -> list[str]:
    clients = mesh.clients
    n = len(clients)
    if not verdict.feasible or verdict.witness is not None:
        return ["verdict is not feasible"]
    expected_rows = 2 ** (n - 1) - 1
    if len(verdict.table) != expected_rows:
        return [f"{len(verdict.table)} rows, expected {expected_rows}"]
    index = {c: i for i, c in enumerate(clients)}
    full = (1 << n) - 1
    seen = bytearray(1 << n)  # a bitmap, so the check adds no memory peak of its own
    for row in verdict.table:
        a = sum(1 << index[c] for c in row.a)
        b = sum(1 << index[c] for c in row.b)
        if not a & 1 or a & b or a | b != full:
            return [f"row {row.a} | {row.b} is not a bipartition with client 0 on side A"]
        if seen[a]:
            return [f"the table repeats the bipartition {row.a} | {row.b}"]
        seen[a] = 1
    errors = []
    for row in rng.sample(verdict.table, min(SAMPLED_ROWS, len(verdict.table))):
        cut = _nx_min_cut(mesh.topology, row.a, row.b)
        block = [
            sum(((mesh.target.rows[index[u]] >> index[v]) & 1) << k for k, v in enumerate(row.b))
            for u in row.a
        ]
        rank = _rank(block)
        if (row.min_cut, row.required_rank) != (cut, rank):
            errors.append(
                f"row {row.a}: min_cut {row.min_cut} rank {row.required_rank}, "
                f"reference {cut} {rank}"
            )
    return errors


# -- compose-sweep ----------------------------------------------------------

_LETTERS = ((1, 0), (1, 1), (0, 1))  # X, Y, Z as (x, z)


def _distance(gens, n: int, cap: int) -> int | None:
    """Smallest weight of a Pauli that commutes with every generator and
    whose pattern lies outside their span."""
    ops = [(g.x, g.z) for g in gens]
    basis = _Basis()
    for x, z in ops:
        basis.add(x | (z << n))
    for w in range(1, min(cap, n) + 1):
        for positions in combinations(range(n), w):
            for letters in product(_LETTERS, repeat=w):
                x = z = 0
                for q, (xb, zb) in zip(positions, letters):
                    x |= xb << q
                    z |= zb << q
                if any(((x & gz).bit_count() + (z & gx).bit_count()) % 2 for gx, gz in ops):
                    continue
                if basis.reduce(x | (z << n))[0]:
                    return w
    return None


def check_composition(c: workloads.Composition, output, sampled: bool) -> list[str]:
    composed, d = output
    n, k = composed.n, composed.k
    errors = []
    if (n, k) != (3 * c.m, c.m):
        errors.append(f"[[{n},{k}]] from {c.m} codes, expected [[{3 * c.m},{c.m}]]")
    errors += _group_errors(composed.group.generators, n, 2 * c.m)
    ceiling = min(
        stabnet.singleton_max_distance(n, k),
        stabnet.storage_bound(n, c.m, workloads.CODE_SIZE, 1, 3),
    )
    if d is None:
        if ceiling <= workloads.WEIGHT_CAP:
            errors.append(f"distance above cap {workloads.WEIGHT_CAP} but ceiling {ceiling}")
    elif d > ceiling:
        errors.append(f"distance {d} above ceiling {ceiling}")
    if sampled and not errors:
        reference = _distance(composed.group.generators, n, workloads.WEIGHT_CAP)
        if reference != d:
            errors.append(f"distance {d}, reference {reference}")
    return errors


# -- cli-fixtures -----------------------------------------------------------


def check_command(command: workloads.Command, output) -> list[str]:
    code, stdout = output
    errors = []
    if code != command.exit_code:
        errors.append(f"exit {code}, expected {command.exit_code}")
    if stdout != command.stdout:
        errors.append("stdout differs from the stored output")
    return errors


def check_pass(name: str, ops: list, outputs: list, rng: random.Random) -> list[list[str]]:
    """Errors per op for one pass of workload ``name``; None outputs are skipped."""
    sampled = set(rng.sample(range(len(ops)), min(SAMPLED_DISTANCES, len(ops))))
    result = []
    for i, (op, output) in enumerate(zip(ops, outputs)):
        if output is None:
            result.append([])
        elif name == "tree-contract":
            result.append(check_tree(op, output, rng))
        elif name == "mesh-sweep":
            result.append(check_mesh(op, output, rng))
        elif name == "compose-sweep":
            result.append(
                [e for c, out in zip(op, output) for e in check_composition(c, out, i in sampled)]
            )
        else:
            result.append(check_command(op, output))
    return result
