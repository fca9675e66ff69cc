import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (
    exhaustive_min_cut,
    groups_equal,
    random_connected_topology,
    random_graph,
    rank_spectrum,
)
import dense_oracle as oracle
import reference_network as reference
import stabnet.network
from stabnet import gf2
from stabnet.cli import feasibility_document
from stabnet.contraction import Status, contract
from stabnet.graphstate import (
    GraphState,
    entanglement_rank,
    stabilizer_generators,
)
from stabnet.network import (
    BipartitionReport,
    FeasibilityVerdict,
    NetworkTopology,
    ReportTable,
    feasibility,
    min_cut,
    repetition_state,
    to_contraction,
)


def star_topology(leaves):
    return NetworkTopology(
        nodes=(("hub", "relay"),) + tuple((f"c{i}", "client") for i in range(leaves)),
        edges=tuple(("hub", f"c{i}", 1) for i in range(leaves)),
    )


def bottleneck_topology():
    return NetworkTopology(
        nodes=tuple((q, "client") for q in "abcd")
        + (("r1", "relay"), ("r2", "relay")),
        edges=(
            ("a", "r1", 1),
            ("b", "r1", 1),
            ("r1", "r2", 1),
            ("c", "r2", 1),
            ("d", "r2", 1),
        ),
    )


def relay_mesh(rng, clients):
    """At most two clients per relay, one channel each, on an 8-relay mesh
    whose tree edges carry 8 channels, so every bipartition passes and the
    table is whole; with a random target and each client's relay."""
    relays = [f"r{i}" for i in range(8)]
    edges = [(relays[rng.randrange(i)], relays[i], 8) for i in range(1, 8)]
    edges += [("r0", "r7", 2), ("r2", "r5", 1), ("r2", "r5", 3)]
    homes = relays * 2
    rng.shuffle(homes)
    homes = homes[:clients]
    edges += [(r, f"c{i}", 1) for i, r in enumerate(homes)]
    nodes = [(r, "relay") for r in relays] + [(f"c{i}", "client") for i in range(clients)]
    return NetworkTopology(tuple(nodes), tuple(edges)), random_graph(rng, clients, 0.3), homes


def random_sweep_case(rng):
    """A topology rich in the cases the compiled sweep special-cases:
    parallel relay edges, multi-channel and doubled client links,
    client-client edges (some joining clients that share every other
    neighbour), twin clients, isolated clients, shuffled node order, a
    ``clients`` subset in shuffled order and an explicit bipartition
    list, as A-side index lists that may leave out index 0.  Returns the
    feasibility arguments, with that list in place of the masks."""
    relays = [f"r{i}" for i in range(rng.randint(1, 4))]
    names = [f"c{i}" for i in range(rng.randint(2, 8))]
    edges = [(relays[rng.randrange(i)], relays[i], rng.randint(1, 3)) for i in range(1, len(relays))]
    for _ in range(rng.randint(0, 3)):  # may repeat a pair: parallel edges
        u, v = rng.choice(relays), rng.choice(relays)
        if u != v:
            edges.append((u, v, rng.randint(1, 3)))
    homes = relays[: rng.randint(1, len(relays))]  # few homes: many twins
    for c in names:
        if rng.random() < 0.9:
            edges.append((rng.choice(homes), c, rng.choice((1, 1, 2, 3))))
        if rng.random() < 0.2:
            edges.append((rng.choice(relays), c, 1))
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(names, 2)
        edges.append((u, v, rng.randint(1, 2)))
    rng.shuffle(edges)
    nodes = [(r, "relay") for r in relays] + [(c, "client") for c in names]
    rng.shuffle(nodes)
    t = NetworkTopology(tuple(nodes), tuple(edges))
    clients = list(t.clients)
    if rng.random() < 0.3:
        clients = rng.sample(clients, rng.randint(2, len(clients)))
    n = len(clients)
    target = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
    sides = None
    if rng.random() < 0.3:
        sides = [rng.sample(range(n), rng.randint(1, n - 1)) for _ in range(rng.randint(1, 12))]
    return t, clients, target, sides


@pytest.fixture
def cut_calls(monkeypatch):
    """The ``(sources, sinks, pushed)`` of each run of the one augmenting
    loop, which ``min_cut`` and every flow of ``feasibility`` go through:
    the node indices of the two sides and the units the run pushed."""
    calls = []
    augment = stabnet.network._augment

    def counted(out, head, cap, sources, sinks):
        pushed = augment(out, head, cap, sources, sinks)
        calls.append((tuple(sources), frozenset(sinks), pushed))
        return pushed

    monkeypatch.setattr(stabnet.network, "_augment", counted)
    return calls


def no_flow(*args):
    raise AssertionError("a flow ran")


def nx_min_cut(t, a, b):
    """Max-flow from a super-source joined to ``a`` to a super-sink
    joined to ``b``, each undirected edge one arc per direction."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(t.node_ids)
    for u, v, c in t.edges:
        for x, y in ((u, v), (v, u)):
            prior = g.get_edge_data(x, y, {"capacity": 0})["capacity"]
            g.add_edge(x, y, capacity=prior + c)
    for q in a:
        g.add_edge(("source",), q)  # no capacity attribute: unbounded
    for q in b:
        g.add_edge(q, ("sink",))
    return nx.minimum_cut(g, ("source",), ("sink",))[0]


class TestTopology:
    def test_roles_and_validation(self):
        t = star_topology(3)
        assert t.clients == ("c0", "c1", "c2")
        assert t.relays == ("hub",)
        # derived once: the same tuples on every access
        assert t.node_ids is t.node_ids and t.clients is t.clients and t.relays is t.relays
        # a replaced node list is checked again, and sets the views again
        swapped = dataclasses.replace(t, nodes=(("c0", "relay"), ("hub", "client")) + t.nodes[2:])
        assert swapped.node_ids == ("c0", "hub", "c1", "c2")
        assert swapped.clients == ("hub", "c1", "c2")
        assert swapped.relays == ("c0",)
        with pytest.raises(ValueError, match="duplicate node ids"):
            dataclasses.replace(t, nodes=t.nodes + (("c0", "client"),))
        with pytest.raises(ValueError):
            NetworkTopology((("a", "client"),), (("a", "a", 1),))
        with pytest.raises(ValueError):
            NetworkTopology((("a", "widget"),), ())
        with pytest.raises(ValueError):
            NetworkTopology(
                (("a", "client"), ("b", "client")), (("a", "b", 0),)
            )

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            pytest.param(
                [(1, "client"), ("1", "relay")], [],
                r"nodes\[0\]\.id must be a string, got 1", id="node-id",
            ),
            pytest.param(
                [("1", "client"), ("2", "client")], [("1", "2", 1), (1, "2", 1)],
                r"edges\[1\]\.u must be a string, got 1", id="edge-u",
            ),
            pytest.param(
                [("1", "client"), ("2", "client")], [("1", 2.0, 1)],
                r"edges\[0\]\.v must be a string, got 2\.0", id="edge-v",
            ),
        ],
    )
    def test_ids_and_roles_are_never_converted(self, nodes, edges, message):
        # an id 1 and an id "1" used to become the same node
        with pytest.raises(ValueError, match=message):
            NetworkTopology(tuple(nodes), tuple(edges))

    def test_json_round_trip(self):
        t = bottleneck_topology()
        again = NetworkTopology.from_json(t.to_json())
        assert set(again.nodes) == set(t.nodes)
        assert set(again.edges) == set(t.edges)

    def test_connectivity(self):
        star = star_topology(3)
        assert len(star.hops_from(star.nodes[0][0])) == len(star.nodes)
        broken = NetworkTopology(
            (("a", "client"), ("b", "client")), ()
        )
        assert len(broken.hops_from("a")) < len(broken.nodes)


class TestMinCut:
    def test_star_is_min_of_sides(self):
        t = star_topology(5)
        clients = [f"c{i}" for i in range(5)]
        for size in (1, 2):
            a, b = clients[:size], clients[size:]
            assert min_cut(t, a, b) == min(len(a), len(b))

    def test_two_clients_one_edge(self):
        t = NetworkTopology(
            (("a", "client"), ("b", "client")), (("a", "b", 1),)
        )
        assert min_cut(t, ["a"], ["b"]) == 1

    def test_tree_one_vs_rest(self):
        spec_nodes = [("root", "relay")]
        spec_edges = []
        leaves = []
        for i in range(3):
            mid = f"m{i}"
            spec_nodes.append((mid, "relay"))
            spec_edges.append(("root", mid, 1))
            for j in range(3):
                leaf = f"l{i}{j}"
                spec_nodes.append((leaf, "client"))
                spec_edges.append((mid, leaf, 1))
                leaves.append(leaf)
        t = NetworkTopology(tuple(spec_nodes), tuple(spec_edges))
        assert min_cut(t, [leaves[0]], leaves[1:]) == 1

    def test_against_exhaustive_enumeration(self, rng):
        for _ in range(60):
            t = random_connected_topology(rng, max_nodes=8)
            clients = list(t.clients)
            half = max(1, len(clients) // 2)
            a, b = set(clients[:half]), set(clients[half:])
            assert min_cut(t, a, b) == exhaustive_min_cut(t, a, b)

    def test_symmetric(self, rng):
        for _ in range(20):
            t = random_connected_topology(rng)
            clients = list(t.clients)
            a, b = {clients[0]}, set(clients[1:])
            assert min_cut(t, a, b) == min_cut(t, b, a)

    def test_monotone_under_added_edges(self):
        t = bottleneck_topology()
        before = min_cut(t, {"a", "b"}, {"c", "d"})
        bigger = NetworkTopology(t.nodes, t.edges + (("r1", "r2", 2),))
        assert min_cut(bigger, {"a", "b"}, {"c", "d"}) >= before

    def test_bad_arguments(self):
        t = star_topology(3)
        with pytest.raises(ValueError):
            min_cut(t, [], ["c0"])
        with pytest.raises(ValueError):
            min_cut(t, ["c0"], ["c0", "c1"])
        with pytest.raises(ValueError):
            min_cut(t, ["nope"], ["c0"])
        with pytest.raises(ValueError, match=r"^unknown node 'nope'$"):
            t.hops_from("nope")

    def test_against_networkx_and_dense_reference(self):
        pytest.importorskip("networkx")
        rng = random.Random(2024)
        for k in range(300):
            if k % 2:
                t = random_connected_topology(rng, max_nodes=12)
            else:
                t = random_sweep_case(rng)[0]
            clients = list(t.clients)
            a = set(rng.sample(clients, rng.randint(1, len(clients) - 1)))
            b = set(rng.sample(sorted(set(clients) - a), rng.randint(1, len(clients) - len(a))))
            cut = min_cut(t, a, b)
            assert cut == nx_min_cut(t, a, b) == reference.min_cut(t, a, b)

    def test_hops_from_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(99)
        for _ in range(40):
            t = random_sweep_case(rng)[0]
            g = nx.MultiGraph()
            g.add_nodes_from(t.node_ids)
            g.add_edges_from((u, v) for u, v, _ in t.edges)
            for source in t.node_ids:
                assert t.hops_from(source) == nx.single_source_shortest_path_length(g, source)


class TestFeasibility:
    def test_star_distributes_any_graph_state(self, rng):
        t = star_topology(5)
        clients = [f"c{i}" for i in range(5)]
        for _ in range(10):
            edges = [
                (u, v)
                for u in range(5)
                for v in range(u + 1, 5)
                if rng.random() < 0.5
            ]
            target = GraphState.from_edges(5, edges)
            assert feasibility(t, clients, target).feasible

    def test_ghz_on_random_connected_topologies(self, rng):
        for _ in range(25):
            t = random_connected_topology(rng)
            clients = list(t.clients)
            target = GraphState.star(len(clients))
            verdict = feasibility(t, clients, target)
            assert verdict.feasible
            assert verdict.witness is None
            assert "necessary condition" in verdict.note

    def test_bottleneck_cycle_infeasible_with_witness(self):
        t = bottleneck_topology()
        verdict = feasibility(t, list("abcd"), GraphState.cycle(4))
        assert not verdict.feasible
        w = verdict.witness
        assert w is not None
        assert (w.min_cut, w.required_rank) == (1, 2)
        assert set(w.a) == {"a", "b"} and set(w.b) == {"c", "d"}
        assert verdict.table[-1] == w and all(r.ok for r in list(verdict.table)[:-1])

    def test_verdict_is_read_off_the_table(self):
        def table(*cuts):  # rows on the one bipartition of two clients, each of rank 1
            return ReportTable(("a", "b"), [0b01] * len(cuts), list(cuts), [1] * len(cuts))

        assert (FeasibilityVerdict(table()).feasible, FeasibilityVerdict(table()).witness) == (True, None)
        assert (FeasibilityVerdict(table(2, 2)).feasible, FeasibilityVerdict(table(2, 2)).witness) == (True, None)
        verdict = FeasibilityVerdict(table(2, 0))
        assert (verdict.feasible, verdict.witness) == (False, BipartitionReport(("a", "b"), 0b01, 0, 1))
        assert [f.name for f in dataclasses.fields(FeasibilityVerdict)] == ["table", "listed"]
        # a passing verdict names what it checked: the sweep, or a listed subset
        assert FeasibilityVerdict(table(2)).note == "necessary condition satisfied for every client bipartition"
        assert FeasibilityVerdict(table(2), listed=True).note == "necessary condition satisfied for every listed bipartition"
        for listed in (False, True):
            assert FeasibilityVerdict(table(2, 0), listed).note == "min-cut below required entanglement rank"
        t, target = star_topology(4), GraphState.cycle(4)
        assert not feasibility(t, t.clients, target).listed
        verdict = feasibility(t, t.clients, target, bipartition_list=[0b0011, 0b0101])
        assert (verdict.feasible, verdict.listed, len(verdict.table)) == (True, True, 2)
        assert verdict.note == "necessary condition satisfied for every listed bipartition"

    def test_rows_read_their_sides_off_the_mask(self):
        rng = random.Random(16)
        for _ in range(300):  # past 20 clients a side is read from three or more subset tables
            clients = tuple(rng.sample([f"q{i}" for i in range(100)], rng.randint(2, 45)))
            a_mask = rng.randrange(1, (1 << len(clients)) - 1)
            cut, rank = rng.randint(0, 3), rng.randint(0, 3)
            row = BipartitionReport(clients, a_mask, cut, rank)
            assert sorted(row.a + row.b) == sorted(clients)
            assert [c for c in clients if c in row.a] == list(row.a)
            assert [c for c in clients if c in row.b] == list(row.b)
            side = {i for i in range(len(clients)) if (a_mask >> i) & 1}
            a = [clients[i] for i in sorted(side)]
            b = [clients[i] for i in range(len(clients)) if i not in side]
            assert (row.a, row.b, row.ok) == (tuple(a), tuple(b), cut >= rank)

    def test_rows_are_slotted(self):
        # a report is built each time a row is read, and a 20-client table
        # has 524287 rows: a reader that keeps them should not pay a __dict__ each
        row = BipartitionReport(("a", "b", "c"), 0b001, 1, 2)
        assert not hasattr(row, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.min_cut = 3
        bumped = dataclasses.replace(row, min_cut=row.min_cut + 1)
        assert (bumped.clients, bumped.a_mask, bumped.min_cut, bumped.required_rank) == (("a", "b", "c"), 0b001, 2, 2)
        assert (row.ok, bumped.ok) == (False, True)

    def test_table_reads_agree(self):
        t, target, _ = relay_mesh(random.Random(10), 10)
        for masks in (None, [0b1, 0b110, 0b1111100000, 0b101010101]):
            verdict = feasibility(t, t.clients, target, bipartition_list=masks)
            table, rows = verdict.table, list(verdict.table)
            assert len(rows) == len(table) == (len(masks) if masks else 2**9 - 1)
            assert [r.a_mask for r in rows] == (masks or list(range(1, (1 << 10) - 1, 2)))
            assert [table[i] for i in range(len(table))] == rows == [table[i - len(table)] for i in range(len(table))]
            for i in (len(table), -len(table) - 1):
                with pytest.raises(IndexError):
                    table[i]
            with pytest.raises(TypeError):  # a row is read by an int index only
                table[3:40:7]
            # bench/reference.py samples rows to check them
            assert random.Random(1).sample(table, 4) == random.Random(1).sample(rows, 4)
            for compact in (False, True):
                assert "".join(feasibility_document(verdict, compact)) == reference.document(verdict, compact)

    def test_one_client_document_has_an_empty_table(self):
        verdict = feasibility(star_topology(1), ["c0"], GraphState.from_edges(1, []))
        assert verdict.feasible and len(verdict.table) == 0
        for compact in (False, True):
            assert "".join(feasibility_document(verdict, compact)) == reference.document(verdict, compact)

    def test_table_stops_at_the_first_violation(self):
        # every column holds one entry per checked row, whether the table
        # ends at a violation of the sweep or of a list (the second listed
        # mask violates, so the third is never checked) or runs whole
        t, target = bottleneck_topology(), GraphState.cycle(4)
        mesh, mesh_target, _ = relay_mesh(random.Random(10), 10)
        cases = [
            feasibility(t, list("abcd"), target),
            feasibility(t, list("abcd"), target, bipartition_list=[0b1, 0b11, 0b101]),
            feasibility(mesh, mesh.clients, mesh_target),
        ]
        assert [v.feasible for v in cases] == [False, False, True]
        for verdict in cases:
            table = verdict.table
            assert len(table.a_masks) == len(table.cuts) == len(table.ranks) == len(table)
            assert verdict.witness == (None if verdict.feasible else table[-1]) and table[-1].ok == verdict.feasible
        assert [r.a_mask for r in cases[1].table] == [0b1, 0b11] and len(cases[2].table) == 2**9 - 1
        assert isinstance(cases[0].table.a_masks, range)  # a sliced range: the sweep stores no masks

    def test_no_flow_runs_after_the_violating_row(self, cut_calls):
        # a, b share r1 and c, d share r2, so the sweep's seven rows need four
        # flows; it stops at its second row, {a, b}, after two of them, and
        # the list stops at its second mask before the third is cut
        t, target = bottleneck_topology(), GraphState.cycle(4)
        a, b = (t._arcs[0][q] for q in "ab")
        for masks in (None, [0b1, 0b11, 0b101]):
            verdict = feasibility(t, list("abcd"), target, bipartition_list=masks)
            assert [r.a_mask for r in verdict.table] == [0b1, 0b11] and verdict.witness == verdict.table[-1]
            assert [sources for sources, *_ in cut_calls] == [(a,), (a, b)]
            cut_calls.clear()

    def test_verdicts_compare_by_identity(self):
        # two sweeps of the same inputs give equal rows but two verdicts,
        # each equal only to itself and hashed by identity
        t = star_topology(4)
        first, second = (feasibility(t, t.clients, GraphState.cycle(4)) for _ in range(2))
        assert list(first.table) == list(second.table) and first.listed == second.listed
        assert first == first and first != second and len({first, second}) == 2
        assert hash(first) == object.__hash__(first)
        listed = dataclasses.replace(first, listed=True)
        assert (listed.table, listed.listed, listed.feasible) == (first.table, True, True)
        assert listed.note == "necessary condition satisfied for every listed bipartition"

    def test_table_keeps_columns(self):
        # 8191 rows: as one report object each, the table held 0.85 MB and
        # the sweep peaked at 1.04 MB; as columns a row is two list slots
        t, target, _ = relay_mesh(random.Random(14), 14)
        feasibility(t, t.clients, target)  # compiles the arcs
        tracemalloc.start()
        try:
            verdict = feasibility(t, t.clients, target)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.feasible and len(verdict.table) == 2**13 - 1
        assert peak < 600_000 and held < 400_000

    def test_size_mismatch(self):
        t = star_topology(3)
        with pytest.raises(ValueError):
            feasibility(t, ["c0", "c1"], GraphState.cycle(4))

    def test_non_client_rejected(self):
        t = star_topology(3)
        with pytest.raises(ValueError):
            feasibility(t, ["hub", "c0", "c1"], GraphState.cycle(3))

    def test_repeated_client_rejected_before_any_cut(self, monkeypatch):
        monkeypatch.setattr(stabnet.network, "_augment", no_flow)
        with pytest.raises(ValueError, match="'c1' is listed twice"):
            feasibility(star_topology(3), ["c0", "c1", "c1"], GraphState.cycle(3))

    def test_sweep_cap(self, monkeypatch):
        # 21 clients is one past the cap; the refusal comes before any cut
        monkeypatch.setattr(stabnet.network, "_augment", no_flow)
        with pytest.raises(ValueError, match="exceed the exhaustive sweep cap 20"):
            feasibility(
                star_topology(21),
                [f"c{i}" for i in range(21)],
                GraphState.cycle(21),
            )

    def test_explicit_bipartition_list_bypasses_cap(self):
        t = star_topology(21)
        verdict = feasibility(
            t,
            [f"c{i}" for i in range(21)],
            GraphState.cycle(21),
            bipartition_list=[0b11],  # clients 0 and 1 on side A
        )
        assert verdict.feasible and len(verdict.table) == 1

    def test_invalid_mask_raises_before_any_cut(self, monkeypatch):
        # an empty side, or a bit past the clients, is a ValueError and
        # never an IndexError, even after a valid mask
        monkeypatch.setattr(stabnet.network, "_augment", no_flow)
        clients = [f"c{i}" for i in range(5)]
        for bad in (0, 0b11111, 1 << 5, 1 << 6, 1 << 40, -1):
            for masks in ([bad], [0b11, bad]):
                with pytest.raises(ValueError, match="some but not all"):
                    feasibility(star_topology(5), clients, GraphState.cycle(5), bipartition_list=masks)

    def test_explicit_list_of_every_mask_matches_sweep(self, rng, cut_calls):
        # the sweep's table ranks and keys against the per-mask ones: same rows,
        # the same first violation and the same flows
        verdicts = Counter()
        for _ in range(60):
            t, clients, target, _ = random_sweep_case(rng)
            masks = list(range(1, (1 << len(clients)) - 1, 2))
            got = feasibility(t, clients, target, bipartition_list=masks)
            listed = cut_calls[:]
            cut_calls.clear()
            want = feasibility(t, clients, target)
            assert list(got.table) == list(want.table) and got.listed and not want.listed
            assert listed == cut_calls
            cut_calls.clear()
            verdicts[want.feasible] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts

    def test_warm_cuts_equal_fresh_cuts(self):
        # every flow of a table starts from the flow the one before it left;
        # each row's cut must still be a flow from zero, with the unlisted
        # clients as transit nodes.  The dense-matrix flow of the reference
        # shares no code with the augmenting loop under test.  An empty
        # target passes every row, so the table is whole.
        rng = random.Random(22)
        rows = Counter()
        for k in range(300):
            names = [f"q{i}" for i in range(rng.randint(5, 10))]
            relays = [f"r{i}" for i in range(rng.randint(1, 3))]
            edges = [(rng.choice(relays), c, rng.randint(1, 3)) for c in names if rng.random() < 0.9]
            for _ in range(rng.randint(2, 8)):  # client-client edges, and parallel edges
                u, v = rng.sample(names + relays, 2)
                edges.append((u, v, rng.randint(1, 3)))
            rng.shuffle(edges)
            t = NetworkTopology(tuple((c, "client") for c in names) + tuple((r, "relay") for r in relays), tuple(edges))
            clients = rng.sample(names, rng.randint(3, min(len(names), 8)))
            n = len(clients)
            masks = None
            if k % 3 == 0:  # every mask and its complement, shuffled
                masks = list(range(1, (1 << n) - 1))
                rng.shuffle(masks)
            verdict = feasibility(t, clients, GraphState.from_edges(n, []), bipartition_list=masks)
            assert len(verdict.table) == (len(masks) if masks else 2 ** (n - 1) - 1)
            for row in verdict.table:
                assert row.min_cut == reference.min_cut(t, row.a, row.b)
            rows[masks is None] += len(verdict.table)
        assert rows[True] > 5000 and rows[False] > 5000, rows


class TestMatchesReference:
    """The streamed, twin-sharing sweep on compiled arcs renders the same
    bytes as the first sweep: a dense-matrix max-flow per bipartition and
    bit-by-bit packed rank blocks, over a list built up front."""

    def test_bipartition_order(self):
        for n in range(1, 11):
            got = [reference.split(n, gf2.set_bits(m)) for m in range(1, (1 << n) - 1, 2)]
            assert got == list(reference.bipartitions(n))

    def test_rank_matches_bitwise_packing(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9))
            for m in range(1, (1 << g.n) - 1, 2):
                part = reference.split(g.n, gf2.set_bits(m))
                assert entanglement_rank(g, m) == reference.entanglement_rank(g, part)

    def test_sweep_ranks_match_entanglement_rank(self):
        # a star with one channel per client cuts min(|A|, |B|), never below
        # a rank, so the table is whole: one table rank per mask
        rng = random.Random(12)
        rows = 0
        for n in list(range(1, 12)) * 2 + [12]:
            target = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            verdict = feasibility(star_topology(n), [f"c{i}" for i in range(n)], target)
            assert [r.a_mask for r in verdict.table] == list(range(1, (1 << n) - 1, 2))
            assert [r.required_rank for r in verdict.table] == [entanglement_rank(target, m) for m in range(1, (1 << n) - 1, 2)]
            rows += len(verdict.table)
        assert rows == 2 * (2**11 - 12) + 2**11 - 1

    def test_rank_table_matches_entanglement_rank(self):
        # every mask of one and two vertices and of the empty and complete
        # graphs up to 12, and 2000 sampled masks of a seeded 20-vertex graph
        graphs = [GraphState.from_edges(1, []), GraphState.from_edges(2, []), GraphState.from_edges(2, [(0, 1)])]
        for n in range(3, 13):
            graphs += [GraphState.from_edges(n, []), GraphState.from_edges(n, itertools.combinations(range(n), 2))]
        for g in graphs:
            masks = range(1, (1 << g.n) - 1, 2)
            assert list(stabnet.network._sweep_ranks(g.rows)) == [entanglement_rank(g, m) for m in masks]
        rng = random.Random(20)
        g = random_graph(rng, 20, 0.5)
        ranks = list(stabnet.network._sweep_ranks(g.rows))
        assert len(ranks) == 2**19 - 1
        assert all(0 <= r <= min(j.bit_count() + 1, 19 - j.bit_count()) for j, r in enumerate(ranks))
        for m in rng.sample(range(1, (1 << 20) - 1, 2), 2000):
            assert ranks[m >> 1] == entanglement_rank(g, m)

    def test_random_sweeps(self):
        rng = random.Random(0x5EED)
        verdicts = []
        for _ in range(240):
            t, clients, target, sides = random_sweep_case(rng)
            masks = parts = None
            if sides is not None:
                masks = [sum(1 << i for i in side) for side in sides]
                parts = [reference.split(len(clients), side) for side in sides]
            got = feasibility(t, clients, target, bipartition_list=masks)
            want = reference.feasibility(t, clients, target, bipartition_list=parts)
            for compact in (False, True):  # the CLI's document, byte for byte, of either verdict
                assert "".join(feasibility_document(got, compact)) == reference.document(want, compact)
                assert "".join(feasibility_document(want, compact)) == reference.document(want, compact)
            verdicts.append(got.feasible)
        assert 20 < sum(verdicts) < 220

    def test_sixteen_client_mesh(self, cut_calls):
        """Two clients per relay: the whole table."""
        t, target, homes = relay_mesh(random.Random(16), 16)
        got = feasibility(t, t.clients, target)
        flows = cut_calls[:]
        want = reference.feasibility(t, t.clients, target)
        assert "".join(feasibility_document(got, compact=True)) == reference.document(want, compact=True)
        assert got.feasible and len(got.table) == 2**15 - 1
        # clients that share a home (one channel each) are twins, so a flow
        # is fixed by side A's count per home; a count vector and its
        # complement cut alike, and {nothing, everything} is no bipartition
        sizes = list(Counter(homes).values())
        vectors = itertools.product(*(range(s + 1) for s in sizes))
        classes = {frozenset((v, tuple(s - c for s, c in zip(sizes, v)))) for v in vectors}
        assert len(flows) == len(classes) - 1 == 3280
        # each flow starts from the one before it, so it pushes far less
        # than the same cuts pushed from zero
        names = t.node_ids
        fresh = sum(min_cut(t, [names[i] for i in a], [names[i] for i in b]) for a, b, _ in flows)
        pushed = sum(units for *_, units in flows)
        assert (pushed, fresh) == (2259, 20248) and 4 * pushed <= fresh

    def test_twins_share_one_cut(self, cut_calls):
        verdict = feasibility(star_topology(6), [f"c{i}" for i in range(6)], GraphState.star(6))
        assert len(verdict.table) == 31
        # all leaves are twins, so a cut is fixed by the size of side A; sizes
        # 1 and 5 share a flow, as do 2 and 4
        assert len(cut_calls) == 3

    def test_adjacent_clients_are_not_twins(self, cut_calls):
        t = star_topology(3)
        t = NetworkTopology(t.nodes, t.edges + (("c1", "c2", 1),))
        verdict = feasibility(t, ["c0", "c1", "c2"], GraphState.from_edges(3, [(0, 1), (1, 2)]))
        assert [r.min_cut for r in verdict.table] == [1, 2, 2]
        assert len(cut_calls) == 3


class TestToContraction:
    def test_swap_chain_reproduces_bell_pair(self):
        t = NetworkTopology(
            nodes=(("A", "client"), ("r1", "relay"), ("r2", "relay"), ("B", "client")),
            edges=(("A", "r1", 1), ("r1", "r2", 1), ("r2", "B", 1)),
        )
        inst, held = to_contraction(
            t, {"r1": repetition_state(2), "r2": repetition_state(2)}
        )
        res = contract(inst)
        assert res.status is Status.PURE
        assert set(held["A"] + held["B"]) == set(res.boundary)
        assert groups_equal(res.residual, repetition_state(2))

    def test_star_distributes_ghz_to_clients(self):
        for leaves in (3, 4):
            t = star_topology(leaves)
            inst, held = to_contraction(t, {"hub": repetition_state(leaves)})
            res = contract(inst)
            assert res.status is Status.PURE
            sv = oracle.stabilizer_state_vector(res.residual)
            ghz = np.zeros(1 << leaves, dtype=complex)
            ghz[0] = ghz[-1] = 1 / np.sqrt(2)
            assert abs(sv.overlap_magnitude(oracle.DenseState(leaves, ghz)) - 1) < 1e-9

    def test_multi_channel_edge(self):
        # 2 channels between the relays: each relay state needs 3 ports
        t = NetworkTopology(
            nodes=(("A", "client"), ("r1", "relay"), ("r2", "relay"), ("B", "client")),
            edges=(("A", "r1", 1), ("r1", "r2", 2), ("r2", "B", 1)),
        )
        inst, _held = to_contraction(
            t, {"r1": repetition_state(3), "r2": repetition_state(3)}
        )
        assert inst.total_qubits == 14
        res = contract(inst)
        assert res.status is Status.PURE
        assert groups_equal(res.residual, repetition_state(2))
        dense = oracle.dense_contract(
            [oracle.stabilizer_state_vector(g) for g in inst.node_states],
            inst.pairings,
            cap=inst.total_qubits,
        )
        sv = oracle.stabilizer_state_vector(res.residual)
        assert abs(dense.overlap_magnitude(sv) - 1) < 1e-9
        assert abs(dense.norm() ** 2 - 2.0**res.log_norm_exponent) < 1e-12

    def test_missing_assignment_is_arity_error(self):
        t = NetworkTopology(
            nodes=(("r", "relay"), ("c", "client")), edges=(("r", "c", 1),)
        )
        with pytest.raises(ValueError, match=r"^relay 'r' with 1 channel halves has no assigned state$"):
            to_contraction(t, {})

    def test_wrong_size_assignment(self):
        t = star_topology(3)
        with pytest.raises(ValueError, match=r"^relay 'hub' has 3 channel halves but its state has 2 qubits$"):
            to_contraction(t, {"hub": repetition_state(2)})

    def test_feasibility_consistent_with_achieved_state(self, rng):
        # whenever the repetition assignment produces a PURE state whose
        # rank spectrum matches the GHZ target, the verdict must be feasible
        for _ in range(15):
            t = random_connected_topology(rng, max_nodes=7)
            clients = list(t.clients)
            assignment = {
                r: repetition_state(sum(c for u, v, c in t.edges if r in (u, v)))
                for r in t.relays
            }
            inst, held = to_contraction(t, assignment)
            res = contract(inst)
            assert res.status is Status.PURE
            target = GraphState.star(len(clients))
            if len(clients) >= 2 and rank_spectrum(res.residual) == rank_spectrum(
                stabilizer_generators(target)
            ):
                assert feasibility(t, clients, target).feasible


class TestRepetitionState:
    def test_two_qubit_is_bell(self):
        assert repetition_state(2).to_strings() == ["+XX", "+ZZ"]

    def test_structure(self):
        g = repetition_state(4)
        assert g.to_strings() == ["+XXXX", "+ZZII", "+IZZI", "+IIZZ"]

    def test_all_ranks_one(self):
        g = repetition_state(5)
        for p in range(1, (1 << 5) - 1, 2):
            assert oracle.group_entanglement_rank(g, list(gf2.set_bits(p))) == 1


def wide_mesh_case(rng):
    """A relay mesh of 2 to 5 relays with 6 to 10 clients on 1 or 2
    channels each, and a random target on the clients: most such cases
    are feasible, some are not."""
    relays = [f"r{i}" for i in range(rng.randint(2, 5))]
    edges = [(relays[rng.randrange(i)], relays[i], rng.randint(1, 3)) for i in range(1, len(relays))]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(relays, 2)
        edges.append((u, v, rng.randint(1, 3)))
    clients = [f"c{i}" for i in range(rng.randint(6, 10))]
    edges += [(rng.choice(relays), c, rng.randint(1, 2)) for c in clients]
    nodes = tuple((r, "relay") for r in relays) + tuple((c, "client") for c in clients)
    target = random_graph(rng, len(clients), rng.choice((0.1, 0.3, 0.6)))
    return NetworkTopology(nodes, tuple(edges)), clients, target


class TestSweepInvariants:
    """Metamorphic checks of the sweep at 6 to 10 clients, which need no
    exhaustive reference."""

    def test_complement_masks_give_the_same_rows(self, rng):
        rows = 0
        for _ in range(16):
            t, clients, target = wide_mesh_case(rng)
            n = len(clients)
            masks = list(range(1, (1 << n) - 1, 2))
            plain = feasibility(t, clients, target, bipartition_list=masks)
            flipped = feasibility(t, clients, target, bipartition_list=[m ^ ((1 << n) - 1) for m in masks])
            assert plain.feasible == flipped.feasible
            assert len(plain.table) == len(flipped.table)
            for r, f in zip(plain.table, flipped.table):
                assert (f.a, f.b) == (r.b, r.a)
                assert (f.min_cut, f.required_rank) == (r.min_cut, r.required_rank)
            rows += len(plain.table)
        assert rows >= 1000, rows

    def test_more_channels_never_break_feasibility(self, rng):
        verdicts = Counter()
        for _ in range(24):
            t, clients, target = wide_mesh_case(rng)
            before = feasibility(t, clients, target)
            edges = list(t.edges)
            k = rng.randrange(len(edges))
            u, v, c = edges[k]
            edges[k] = (u, v, c + rng.randint(1, 3))
            after = feasibility(NetworkTopology(t.nodes, tuple(edges)), clients, target)
            assert after.feasible or not before.feasible
            # row by row a cut can only grow, so the first violation comes no sooner
            assert len(after.table) >= len(before.table)
            for r, s in zip(before.table, after.table):
                assert (s.a, s.required_rank) == (r.a, r.required_rank)
                assert s.min_cut >= r.min_cut
            verdicts[before.feasible, after.feasible] += 1
        assert verdicts[True, True] >= 4 and verdicts[False, False] >= 2, verdicts
