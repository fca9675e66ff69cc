import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reference_network as reference
from conftest import corrupt_once
from stabnet.cli import build_parser, main
from stabnet.codes import DEFAULT_ENUMERATION_BUDGET
from stabnet.graphstate import GraphState
from stabnet.contraction import contract
from stabnet.network import NetworkTopology, feasibility, repetition_state, to_contraction

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / name)


def edited_fixture(tmp_path, name, edit):
    """A copy of fixture ``name`` after ``edit`` changed its JSON data."""
    data = json.loads((FIXTURES / name).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestFeasibilityCommand:
    def test_star_any_target_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
        )
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is True
        assert "necessary condition" in data["note"]

    def test_bottleneck_cycle_exit_one_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "feasibility",
            "--topology", fixture("bottleneck_topology.json"),
            "--target", fixture("cycle_target.json"),
        )
        assert code == 1
        data = json.loads(out)
        assert data["feasible"] is False
        assert data["witness"]["min_cut"] == 1
        assert data["witness"]["required_rank"] == 2

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "feasibility",
            "--topology", "no_such_file.json",
            "--target", fixture("ghz_target.json"),
        )
        assert code == 2
        assert "no_such_file.json" in err

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [,]}')
        code, _, err = run(
            capsys,
            "feasibility",
            "--topology", str(bad),
            "--target", fixture("ghz_target.json"),
        )
        assert code == 2
        assert "line" in err


    @pytest.mark.parametrize(
        "sides, index",
        [([[0, 7]], "index 7"), ([[-1]], "index -1"), ([[0, True]], "index True")],
    )
    def test_bad_bipartition_index_exit_two(self, tmp_path, capsys, sides, index):
        # star_topology has 5 clients; an index past them used to escape as
        # an IndexError (exit 1, read as "infeasible")
        path = tmp_path / "parts.json"
        path.write_text(json.dumps(sides))
        code, out, err = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
            "--bipartitions", str(path),
        )
        assert code == 2
        assert out == ""
        assert f"{path}: bad bipartition list: {index} " in err

    def test_empty_bipartition_list_exit_two(self, tmp_path, capsys):
        # [] would give "feasible": true over an empty table: a verdict
        # with nothing checked
        path = tmp_path / "parts.json"
        path.write_text("[]")
        code, out, err = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
            "--bipartitions", str(path),
        )
        assert code == 2
        assert out == ""
        assert f"{path}: bad bipartition list: " in err

    @pytest.mark.parametrize("side", [[], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0, 0]])
    def test_side_a_empty_or_every_client_exit_two(self, tmp_path, capsys, side):
        # star_topology has 5 clients: side A must hold some but not all
        path = tmp_path / "parts.json"
        path.write_text(json.dumps([[0, 1], side]))
        code, out, err = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
            "--bipartitions", str(path),
        )
        assert code == 2
        assert out == ""
        # the entry is named with the list it holds, not as a bit mask
        word = "every" if side else "no"
        assert err == f"error: {path}: bad bipartition list: bipartitions[1] puts {word} client on side A: {side}\n"

    @pytest.mark.parametrize(
        "sides, options, rows",
        [
            # repeats count once, order is free and index 0 may sit on side B
            pytest.param(
                "[[2, 0, 2], [3, 1]]", [],
                [(["c0", "c2"], ["c1", "c3", "c4"], 2), (["c1", "c3"], ["c0", "c2", "c4"], 2)],
                id="any-order",
            ),
            # the kite_bipartitions fixture's lists, printed on one line
            pytest.param(
                "[[0, 1], [0, 2, 4]]", ["--compact"],
                [(["c0", "c1"], ["c2", "c3", "c4"], 1), (["c0", "c2", "c4"], ["c1", "c3"], 2)],
                id="compact",
            ),
        ],
    )
    def test_index_lists_are_sets_in_any_order(self, tmp_path, capsys, sides, options, rows):
        path = tmp_path / "parts.json"
        path.write_text(sides)
        code, out, _ = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
            "--bipartitions", str(path),
            *options,
        )
        assert code == 0
        assert (len(out.splitlines()) == 1) == bool(options)
        table = json.loads(out)["table"]
        assert [(r["a"], r["b"], r["required_rank"]) for r in table] == rows

    def test_listed_bipartitions_that_pass_say_so(self, capsys):
        # 2 of the kite's 15 bipartitions are checked: the note said every
        # client bipartition was; a sweep's note is unchanged
        argv = ["feasibility", "--topology", fixture("star_topology.json"), "--target", fixture("kite_target.json")]
        code, out, err = run(capsys, *argv, "--bipartitions", fixture("kite_bipartitions.json"))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["feasible"], len(data["table"])) == (True, 2)
        assert data["note"] == "necessary condition satisfied for every listed bipartition"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["note"] == "necessary condition satisfied for every client bipartition"

    @pytest.mark.parametrize(
        "clients, message",
        [
            ("c0,c0,c1,c2,c3", "--clients: client 'c0' is listed twice"),
            ("zz,c0,c1,c2,c3", "--clients: 'zz' is not a client node"),
            # an empty list used to read as "not given": a sweep over every client
            ("", "--clients: '' is not a client node"),
        ],
    )
    def test_bad_clients_name_the_option(self, capsys, clients, message):
        code, out, err = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("kite_target.json"),
            "--clients", clients,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "clients, source",
        [
            pytest.param([], "--clients is not given and {topology} has 5 clients", id="all-clients"),
            pytest.param(["--clients", "c0,c1,c2"], "--clients names 3 clients", id="listed-clients"),
        ],
    )
    def test_client_count_mismatch_names_target_and_clients(self, capsys, clients, source):
        topology, target = fixture("star_topology.json"), fixture("cycle_target.json")
        code, out, err = run(
            capsys, "feasibility", "--topology", topology, "--target", target, *clients
        )
        assert (code, out) == (2, "")
        assert err == f"error: {target}: n is 4, but {source.format(topology=topology)}\n"

    @pytest.mark.parametrize(
        "text", ['{"n": 3000000, "edges": []}', '{"n": 3000000, "edges": 5}', '{"bits": "", "n": 3000000}']
    )
    def test_target_size_checked_before_the_graph_is_built(self, tmp_path, capsys, text):
        # n is compared with the client count as soon as it is read: these
        # 30 bytes used to allocate and check three million rows first
        path, topology = tmp_path / "huge.json", fixture("star_topology.json")
        path.write_text(text)
        build_parser()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "feasibility", "--topology", topology, "--target", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: {path}: n is 3000000, but --clients is not given and {topology} has 5 clients\n"
        assert peak < 1_000_000

    def test_max_clients_option_is_gone(self, capsys):
        # the sweep cap is fixed: a larger one only starts a sweep whose table
        # outgrows memory
        with pytest.raises(SystemExit) as exc:
            main([
                "feasibility",
                "--topology", fixture("star_topology.json"),
                "--target", fixture("kite_target.json"),
                "--max-clients", "30",
            ])
        assert exc.value.code == 2
        assert "--max-clients" in capsys.readouterr().err


class TestContractCommand:
    def test_swap_chain(self, capsys):
        code, out, _ = run(
            capsys, "contract", "--instance", fixture("swap_chain_instance.json")
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "PURE"
        assert data["residual"] == ["+XX", "+ZZ"]
        assert data["boundary"] == [1, 3]

    def test_fractional_pairing_exit_two(self, tmp_path, capsys):
        # [0.5, 2] used to run as [0, 2] and exit 0
        data = json.loads((FIXTURES / "swap_chain_instance.json").read_text())
        data["pairings"] = [[0.5, 2]]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "contract", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert "pairings[0][0] must be an integer" in err
        assert str(path) in err

    def test_annihilating_instance_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "contract", "--instance", fixture("annihilating_instance.json")
        )
        assert code == 1
        assert json.loads(out)["status"] == "ANNIHILATED"

    def test_convention_override_flips_outcome(self, capsys):
        code, out, _ = run(
            capsys,
            "contract",
            "--instance", fixture("annihilating_instance.json"),
            "--convention", "graph-edge",
        )
        assert code == 0
        assert json.loads(out)["status"] == "PURE"

    @pytest.mark.parametrize("convention", ["plus-pair", "graph-edge"])
    def test_convention_applies_alike_to_compose(self, capsys, convention):
        spec = fixture("triangle_composition.json")
        code, out, _ = run(capsys, "contract", "--instance", spec, "--convention", convention)
        assert code == 0
        residual = json.loads(out)["residual"]
        code, out, _ = run(capsys, "code", "compose", spec, "--convention", convention)
        assert code == 0
        composed = json.loads(out)
        assert (composed["convention"], composed["generators"]) == (convention, residual)

    def test_triangle_instance_prints_six_generators(self, capsys):
        code, out, _ = run(
            capsys, "contract", "--instance", fixture("triangle_composition.json")
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "MIXED"  # a code space, not a state
        assert len(data["residual"]) == 6


class TestCodeCommand:
    def test_distance(self, capsys):
        code, out, _ = run(
            capsys, "code", "distance", fixture("five_qubit_code.json")
        )
        assert code == 0
        assert json.loads(out)["distance"] == 3

    def test_distance_above_cap_notes_it(self, capsys):
        code, out, _ = run(
            capsys,
            "code", "distance", fixture("five_qubit_code.json"),
            "--weight-cap", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["distance"], data["note"]) == (None, "greater than cap 2")
        # compose --distance prints the same keys; it used to drop both
        code, out, _ = run(
            capsys,
            "code", "compose", fixture("triangle_composition.json"),
            "--distance", "--weight-cap", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["distance"], data["note"]) == (None, "greater than cap 2")

    @pytest.mark.parametrize("budget", [[], ["--budget", "1"]])
    def test_k_zero_has_no_logical_operator(self, capsys, budget):
        # the swap chain composes to a Bell pair: a stabilizer state, so no
        # cap is ever reached and no search runs, not even past a budget
        code, out, _ = run(
            capsys, "code", "compose", fixture("swap_chain_instance.json"), "--distance", *budget
        )
        assert code == 0
        data = json.loads(out)
        assert (data["k"], data["distance"], data["note"]) == (0, None, "k = 0 has no logical operator")

    def test_bounds(self, capsys):
        code, out, _ = run(
            capsys,
            "code", "bounds",
            "--B", "9", "--m", "3", "--l", "5", "--k", "1", "--d", "3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["storage_bound"] == 4
        assert data["singleton_max_distance"] == 4

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_bounds_past_digit_limit_names_options(self, capsys):
        # an 8600-digit storage bound used to exit 2 with Python's own
        # message, which names no option
        limit = sys.get_int_max_str_digits()
        big = str(10 ** (limit - 1))
        code, out, err = run(capsys, "code", "bounds", "--B", big, "--m", big, "--l", big, "--k", "1", "--d", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --B/--m/--l/--k/--d: storage_bound has more than {limit} digits, too large to print\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_bounds_product_past_digit_limit(self, tmp_path, capsys):
        # --m and --k of 4300 digits each parse, but their product does not print
        nines = "9" * sys.get_int_max_str_digits()
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            argv = ["code", "bounds", "--B", "9", "--m", nines, "--l", "1", "--k", nines, "--d", "1", *extra]
            assert run(capsys, *argv) == (2, "", "error: --B/--m/--l/--k/--d: boundary 9 cannot store k · m logical qubits\n")
        assert not out.exists()

    def test_compose_triangle(self, capsys):
        code, out, _ = run(
            capsys,
            "code", "compose", fixture("triangle_composition.json"),
            "--distance", "--weight-cap", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["n"], data["k"], data["distance"]) == (9, 3, 3)
        assert len(data["generators"]) == 6
        assert data["convention"] == "graph-edge"

    def test_compose_honours_qubit_offsets(self, tmp_path, capsys):
        # the GHZ code sits at qubits 1..3 and the |+> state at qubit 0;
        # contracting qubits 0 and 1 leaves a Bell pair on qubits 2 and 3
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "node_states": [["+XXX", "+ZZI", "+IZZ"], ["+X"]],
            "qubit_offsets": [1, 0],
            "pairings": [[0, 1]],
        }))
        code, out, _ = run(capsys, "contract", "--instance", str(spec))
        assert code == 0
        residual = json.loads(out)
        code, out, _ = run(capsys, "code", "compose", str(spec))
        assert code == 0
        composed = json.loads(out)
        assert composed["generators"] == residual["residual"] == ["+ZZ", "+XX"]
        assert composed["n"] == len(residual["boundary"]) == 2
        assert composed["k"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", fixture("five_qubit_code.json")],
            ["compose", fixture("triangle_composition.json"), "--distance"],
        ],
    )
    @pytest.mark.parametrize("env", ["10", "abc"])
    def test_budget_variable_is_not_read(self, capsys, monkeypatch, argv, env):
        # the budget has one source, --budget: the old variable neither
        # refuses the search nor fails to parse
        monkeypatch.setenv("STABNET_DISTANCE_BUDGET", env)
        code, out, err = run(capsys, "code", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["distance"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", fixture("five_qubit_code.json")],
            ["compose", fixture("triangle_composition.json"), "--distance"],
        ],
    )
    @pytest.mark.parametrize("env", ["10", "abc"])
    def test_budget_flag_wins_over_env(self, capsys, monkeypatch, argv, env):
        monkeypatch.setenv("STABNET_DISTANCE_BUDGET", env)
        code, out, err = run(capsys, "code", *argv, "--budget", "1000000")
        assert (code, err) == (0, "")
        assert json.loads(out)["distance"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", fixture("five_qubit_code.json")],
            ["compose", fixture("triangle_composition.json"), "--distance"],
        ],
    )
    def test_budget_flag_refuses_without_env(self, capsys, argv):
        code, out, err = run(capsys, "code", *argv, "--budget", "10")
        assert (code, out) == (2, "")
        assert "exceed the budget 10" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", fixture("five_qubit_code.json")],
            ["compose", fixture("triangle_composition.json"), "--distance"],
        ],
    )
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_weight_cap_below_one_names_the_option(self, capsys, argv, cap):
        code, out, err = run(capsys, "code", *argv, "--weight-cap", cap)
        assert (code, out) == (2, "")
        assert err == f"error: --weight-cap: must be at least 1, got {cap}\n"


class TestMetricsCommand:
    def test_tree_sweep(self, capsys):
        code, out, _ = run(capsys, "metrics", "--n", "3", "--p", "1..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p,scheme,latency,memory,channels,p_success"
        lqc = [l.split(",") for l in lines[1:] if l.split(",")[2] == "LQC"]
        epr = [l.split(",") for l in lines[1:] if l.split(",")[2] == "EPR"]
        assert [row[3] for row in lqc] == [str(p) for p in range(1, 7)]
        assert [row[3] for row in epr] == [str(3**p) for p in range(1, 7)]

    def test_topology_noise_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "metrics",
            "--noise", "0.05",
            "--topology", fixture("tree_depth2_topology.json"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        rows = {l.split(",")[2]: l.split(",") for l in lines[1:]}
        assert rows["LQC"][5] == "12" and rows["EPR"][5] == "18"
        assert float(rows["LQC"][6]) > float(rows["EPR"][6])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "3"], "--p is required with --n"),
            (["--p", "1..6"], "--n is required with --p"),
            (["--n", "x", "--p", "1"], "--n: bad range 'x'"),
            (["--n", "3", "--p", "1..y"], "--p: bad range '1..y'"),
            (["--n", "5..2", "--p", "1"], "--n: empty range '5..2'"),
            (["--n", "3", "--p", "4..1"], "--p: empty range '4..1'"),
            # options that used to be dropped silently, with exit 0
            pytest.param([], "nothing to sweep: give --n and --p, or --topology", id="bare"),
            pytest.param(
                ["--n", "3", "--p", "2", "--topology", fixture("star_topology.json")],
                "--n and --p cannot be combined with --topology",
                id="topology-with-n-p",
            ),
            pytest.param(
                ["--p", "2", "--topology", fixture("star_topology.json")],
                "--p cannot be combined with --topology",
                id="topology-with-p",
            ),
            pytest.param(
                ["--n", "3", "--p", "2", "--center", "r0"],
                "--center needs --topology",
                id="center-without-topology",
            ),
        ],
    )
    def test_bad_sweep_options_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, "metrics", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_unknown_center_names_option_and_topology(self, capsys):
        topology = fixture("star_topology.json")
        code, out, err = run(capsys, "metrics", "--topology", topology, "--center", "r9")
        assert code == 2
        assert out == ""
        assert err == f"error: --center: 'r9' is not a node of {topology}\n"

    def test_unreachable_client_names_the_topology(self, tmp_path, capsys):
        # the channel count has no value then; the message used to name no file
        topology = edited_fixture(tmp_path, "star_topology.json", lambda d: d["edges"].pop(0))
        code, out, err = run(capsys, "metrics", "--topology", topology)
        assert (code, out) == (2, "")
        assert err == f"error: {topology}: clients unreachable from 'hub': ['c0']\n"

    def test_isolated_relay_leaves_the_default_center(self, tmp_path, capsys):
        # a relay that reaches no client used to refuse the EPR row
        def add_spare(d):
            d["nodes"].append({"id": "spare", "role": "relay"})

        topology = edited_fixture(tmp_path, "star_topology.json", add_spare)
        code, out, err = run(capsys, "metrics", "--topology", topology)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [",,LQC,,,5,", ",,EPR,,,5,"]

    def test_channel_count_past_digit_limit_names_the_topology(self, tmp_path, capsys):
        # two edges of 4300 nines make an LQC count of 4301 digits: str()
        # refused it with a message that named neither file nor field
        limit = sys.get_int_max_str_digits()
        topology, _ = star_files(tmp_path, 1, channels=10**limit - 1, parallel=2)
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run(capsys, "metrics", "--topology", topology, *extra)
            assert (code, stdout) == (2, "")
            assert err == f"error: {topology}: the LQC channel count has more than {limit} digits, too large to print\n"
        assert not out.exists()

    def test_channel_count_past_float_range(self, capsys):
        # 2**2000 * 2000 channels used to overflow the survival power: exit 3
        code, out, err = run(capsys, "metrics", "--n", "2", "--p", "2000", "--noise", "0.1")
        assert (code, err) == (0, "")
        rows = out.strip().splitlines()
        assert rows[-1].split(",")[:3] == ["2", "2000", "EPR"]
        assert rows[-1].split(",")[-1] == "0"

    def test_noise_below_float_spacing_is_kept(self, capsys):
        # 1 - 1e-17 rounds to 1.0, which printed a survival of 1 on both
        # rows; exp(-1111) and exp(-2e4) are 0 at 12 digits
        code, out, err = run(capsys, "metrics", "--n", "10", "--p", "20", "--noise", "1e-17")
        assert (code, err) == (0, "")
        assert [row.split(",")[-1] for row in out.strip().splitlines()[1:]] == ["0", "0"]

    @pytest.mark.parametrize(
        "n, p, first",
        [
            ("3", "60000", "60000"),
            ("7", "200000", "200000"),
            ("2", "1000000000", "1000000000"),
            ("2", "1..1000000000", "14271"),
        ],
    )
    def test_too_large_sweep_refused_before_any_figure(self, capsys, monkeypatch, n, p, first):
        # the refusal used to come from str() after every figure of the sweep
        # was built: 29 s for n=3, p=60000, and 2**1000000000 is 125 MB
        def no_figure(*args, **kwargs):
            raise AssertionError("a figure was built")

        monkeypatch.setattr("stabnet.cli.channel_count", no_figure)
        build_parser()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "metrics", "--n", n, "--p", p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: --n/--p: n={n}, p={first} gives a figure of more than {limit} digits, too large to print\n"
        assert peak < 10_000_000

    def test_tree_sweep_is_written_as_it_runs(self, capsys, tmp_path):
        # every row of a sweep used to be held, and joined into one string,
        # before the first was written: 3.3 MB here, 386 MB at n = 2..1000000
        out = tmp_path / "sweep.csv"
        build_parser()
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "metrics", "--n", "2..10001", "--p", "1", "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout, err) == (0, "", "")
        assert peak < 1_000_000
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 2 * 10000
        assert rows[-2:] == ["10001,1,LQC,1,10002,10001,", "10001,1,EPR,10001,10001,10001,"]

    def test_largest_printable_figures_still_print(self, capsys):
        # 2**14270 * 14270 has 4300 digits, the most str() prints by default
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "metrics", "--n", "2", "--p", "14270")
        assert code == 0
        assert len(out.strip().splitlines()[-1].split(",")[5]) == limit == 4300
        # at p = 1 the largest figure is the memory n + 1, not the channels
        code, _, err = run(capsys, "metrics", "--n", "9" * limit, "--p", "1")
        assert code == 2 and "too large to print" in err

    def test_too_large_figure_names_options(self, capsys):
        # 2**20000 has 6021 digits, past str()'s limit; the message used to
        # name no option and pointed at a Python API
        code, out, err = run(capsys, "metrics", "--n", "2", "--p", "20000")
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: --n/--p: n=2, p=20000 gives a figure of more than {limit} digits, too large to print\n"


class TestNumericFields:
    """A numeric input field that is not a JSON integer exits 2 naming the
    file and the field; it is never rounded or compared loosely."""

    @pytest.mark.parametrize(
        "option, name, edit, message",
        [
            pytest.param(
                "--topology", "star_topology.json",
                lambda d: d["edges"][0].update(channels=1.5),
                "bad topology: edges[0].channels must be an integer, got 1.5",
                id="channels",
            ),
            pytest.param(
                "--target", "kite_target.json",
                lambda d: (d.pop("edges"), d.update(n=5.7, bits="1" * 10)),
                "bad target graph: n must be an integer, got 5.7",
                id="graph-n",
            ),
            pytest.param(
                "--target", "kite_target.json",
                lambda d: d["edges"].__setitem__(0, [0, True]),
                "bad target graph: edges[0][1] must be an integer, got True",
                id="graph-edge",
            ),
        ],
    )
    def test_feasibility_inputs(self, tmp_path, capsys, option, name, edit, message):
        files = {"--topology": fixture("star_topology.json"), "--target": fixture("kite_target.json")}
        files[option] = edited_fixture(tmp_path, name, edit)
        code, out, err = run(capsys, "feasibility", *(a for pair in files.items() for a in pair))
        assert code == 2
        assert out == ""
        assert f"{files[option]}: {message}" in err

    @pytest.mark.parametrize("field, value", [("n", 5.0), ("k", "1"), ("distance", 3.5)])
    def test_code_fields(self, tmp_path, capsys, field, value):
        path = edited_fixture(tmp_path, "five_qubit_code.json", lambda d: d.update({field: value}))
        code, out, err = run(capsys, "code", "distance", path)
        assert code == 2
        assert out == ""
        assert f"{path}: bad code: {field} must be an integer, got {value!r}" in err


class TestRefusedValuesNameTheOption:
    """A value the library refuses exits 2 with the option named first."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metrics", "--n", "2", "--p", "2", "--noise", "1.5"], "--noise: p_fail must be in [0, 1], got 1.5"),
            (["metrics", "--n", "2", "--p", "2", "--noise", "nan"], "--noise: p_fail must be in [0, 1], got nan"),
            (["metrics", "--n", "1", "--p", "2"], "--n/--p: connectivity n must be >= 2"),
            (["metrics", "--n", "2", "--p", "0"], "--n/--p: depth p must be >= 1"),
            (
                ["code", "bounds", "--B", "2", "--m", "0", "--l", "5", "--k", "1", "--d", "3"],
                "--B/--m/--l/--k/--d: m must be positive, got 0",
            ),
            (
                ["code", "bounds", "--B", "2", "--m", "3", "--l", "5", "--k", "1", "--d", "3"],
                "--B/--m/--l/--k/--d: boundary 2 cannot store 3 logical qubits",
            ),
            (
                ["code", "bounds", "--B", "9", "--m", "3", "--l", "5", "--k", "1", "--d", "4"],
                "--B/--m/--l/--k/--d: no [[5, 1, 4]] code exists: k > l - 2(d - 1)",
            ),
            (
                ["code", "distance", fixture("five_qubit_code.json"), "--budget", "10"],
                "--budget: 1023 candidates up to weight 5 exceed the budget 10",
            ),
            (
                ["code", "compose", fixture("triangle_composition.json"), "--distance", "--budget", "10"],
                "--budget: 43443 candidates up to weight 5 exceed the budget 10",
            ),
        ],
        ids=["noise", "noise-nan", "n", "p", "m", "boundary", "no-such-code", "distance-budget", "compose-budget"],
    )
    def test_refusal_names_the_option(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_negative_qubit_count_names_the_file(self, tmp_path, capsys):
        # it used to blame --budget for a negative shift count
        path = tmp_path / "code.json"
        path.write_text('{"n": -1, "generators": []}')
        code, out, err = run(capsys, "code", "distance", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad code: n must be >= 0, got -1\n"
        path.write_text('{"n": 0, "generators": []}')
        code, out, err = run(capsys, "code", "distance", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["k"] == 0

    def test_distance_below_one_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text('{"n": 2, "generators": ["XX", "ZZ"], "distance": -3}')
        code, out, err = run(capsys, "code", "distance", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad code: distance must be >= 1, got -3\n"


class TestNamedEntries:
    """A bad string, group or id in an input file exits 2 naming the file
    and the entry, not just a character position."""

    @pytest.mark.parametrize(
        "command, name, edit, message",
        [
            pytest.param(
                ("contract", "--instance"), "swap_chain_instance.json",
                lambda d: d["node_states"][0].__setitem__(1, "+ZQ"),
                "bad contraction instance: node_states[0][1]: invalid character 'Q' at position 2",
                id="instance-string",
            ),
            pytest.param(
                ("contract", "--instance"), "swap_chain_instance.json",
                lambda d: d["node_states"][1].__setitem__(1, "+ZI"),
                "bad contraction instance: node_states[1]: +XX and +ZI anticommute",
                id="instance-anticommuting",
            ),
            pytest.param(
                ("code", "compose"), "swap_chain_instance.json",
                lambda d: d["node_states"][1].append("-YY"),
                "bad composition spec: node_states[1]: generators are GF(2)-dependent",
                id="spec-dependent",
            ),
            pytest.param(
                ("code", "distance"), "five_qubit_code.json",
                lambda d: d["generators"].__setitem__(3, "+ZXIX"),
                "bad code: generators[3]: expected 5 letters, found 4 at position 4",
                id="code-length",
            ),
            pytest.param(
                ("code", "distance"), "five_qubit_code.json",
                lambda d: d["generators"].__setitem__(2, "+XIXZZ+"),
                "bad code: generators[2]: invalid character '+' at position 6",
                id="code-string",
            ),
            pytest.param(
                ("contract", "--instance"), "swap_chain_instance.json",
                lambda d: d.__setitem__("convention", 5),
                'bad contraction instance: convention must be "plus-pair" or "graph-edge", got 5',
                id="instance-convention",
            ),
            pytest.param(
                # a one-block instance placed far past qubit 0
                ("contract", "--instance"), "swap_chain_instance.json",
                lambda d: d.update(node_states=[["XX", "ZZ"]], qubit_offsets=[1000000], pairings=[]),
                "bad contraction instance: node blocks must cover qubits 0..total-1 exactly",
                id="instance-far-offset",
            ),
            pytest.param(
                # past the quantum Singleton bound k <= n - 2(d - 1): no such code exists
                ("code", "distance"), "five_qubit_code.json",
                lambda d: d.update(distance=100),
                "bad code: distance 100 breaks the quantum Singleton bound: "
                "an [[5, 1]] code has distance at most 3",
                id="code-distance-past-singleton",
            ),
            pytest.param(
                ("code", "compose"), "triangle_composition.json",
                lambda d: d.__setitem__("convention", "bell"),
                "bad composition spec: convention must be \"plus-pair\" or \"graph-edge\", got 'bell'",
                id="spec-convention",
            ),
        ],
    )
    def test_pauli_files(self, tmp_path, capsys, command, name, edit, message):
        path = edited_fixture(tmp_path, name, edit)
        code, out, err = run(capsys, *command, path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    def test_topology_ids_must_be_strings(self, tmp_path, capsys):
        # the hub renamed to the number 1 while its edges say "1": both
        # used to become the node "1", and the sweep ran
        def edit(data):
            data["nodes"][0]["id"] = 1
            for edge in data["edges"]:
                edge["u"] = "1"

        path = edited_fixture(tmp_path, "star_topology.json", edit)
        code, out, err = run(
            capsys, "feasibility", "--topology", path, "--target", fixture("kite_target.json")
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: bad topology: nodes[0].id must be a string, got 1\n"


def _set(key, value, *dropped):
    """An edit that sets ``key`` to ``value`` and drops the ``dropped`` keys."""

    def edit(data):
        data[key] = value
        for name in dropped:
            data.pop(name)

    return edit


STAR, KITE = fixture("star_topology.json"), fixture("kite_target.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["contract", "--instance", None],
        ["code", "distance", None],
        ["feasibility", "--topology", None, "--target", KITE],
        ["feasibility", "--topology", STAR, "--target", None],
        ["feasibility", "--topology", STAR, "--target", KITE, "--bipartitions", None],
    ],
    ids=["instance", "code", "topology", "target", "bipartitions"],
)
def test_deep_nesting_is_invalid_json(tmp_path, capsys, argv):
    # past the parser's recursion limit; this used to exit 3 on RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    code, out, err = run(capsys, *[str(path) if a is None else a for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


class TestJsonTypes:
    """A JSON value of the wrong type is never read as a list: a string in
    place of a list exits 2 naming the field instead of being iterated
    letter by letter."""

    @pytest.mark.parametrize(
        "argv, name, edit, message",
        [
            pytest.param(
                ["contract", "--instance"], "swap_chain_instance.json",
                _set("node_states", "XZ"),
                "bad contraction instance: node_states must be a list of node states, got 'XZ'",
                id="node_states",
            ),
            pytest.param(
                # each letter used to become a one-qubit node, and this ran as PURE
                ["contract", "--instance"], "swap_chain_instance.json",
                lambda d: d.update(node_states=["X", "Z"], pairings=[[0, 1]], qubit_offsets=[0, 1]),
                "bad contraction instance: node_states[0] must be a list of Pauli strings, got 'X'",
                id="node_states-entry",
            ),
            pytest.param(
                # used to exit 3 on 'int' object has no attribute 'startswith'
                ["contract", "--instance"], "swap_chain_instance.json",
                lambda d: d["node_states"][1].__setitem__(0, 5),
                "bad contraction instance: node_states[1][0] must be a Pauli string, got 5",
                id="node_states-string",
            ),
            pytest.param(
                ["code", "distance"], "five_qubit_code.json",
                lambda d: d["generators"].__setitem__(2, ["X"]),
                "bad code: generators[2] must be a Pauli string, got ['X']",
                id="generators-string",
            ),
            pytest.param(
                ["contract", "--instance"], "swap_chain_instance.json",
                _set("pairings", "02"),
                "bad contraction instance: pairings must be a list of qubit pairs, got '02'",
                id="pairings",
            ),
            pytest.param(
                ["contract", "--instance"], "swap_chain_instance.json",
                _set("qubit_offsets", "02"),
                "bad contraction instance: qubit_offsets must be a list of integers, got '02'",
                id="qubit_offsets",
            ),
            pytest.param(
                ["code", "distance"], "five_qubit_code.json",
                _set("generators", "XI", "n", "k"),
                "bad code: generators must be a list of Pauli strings, got 'XI'",
                id="generators",
            ),
            pytest.param(
                ["feasibility", "--topology", STAR, "--target"], "kite_target.json",
                _set("edges", "xy"),
                "bad target graph: edges must be a list of vertex pairs, got 'xy'",
                id="graph-edges",
            ),
            pytest.param(
                ["feasibility", "--topology", STAR, "--target"], "kite_target.json",
                _set("edges", [5]),
                "bad target graph: edges[0] must be a vertex pair, got 5",
                id="graph-edge-entry",
            ),
            pytest.param(
                ["contract", "--instance"], "swap_chain_instance.json",
                _set("pairings", [[0, 3], 5]),
                "bad contraction instance: pairings[1] must be a qubit pair, got 5",
                id="pairings-entry",
            ),
            pytest.param(
                ["feasibility", "--topology", STAR, "--target"], "kite_target.json",
                _set("bits", 1, "edges"),
                "bad target graph: bits must be a string of 0s and 1s, got 1",
                id="graph-bits",
            ),
            pytest.param(
                ["metrics", "--topology"], "star_topology.json",
                _set("nodes", "ab"),
                "bad topology: nodes must be a list of objects, got 'ab'",
                id="topology-nodes",
            ),
            pytest.param(
                ["metrics", "--topology"], "star_topology.json",
                _set("edges", "xy"),
                "bad topology: edges must be a list of objects, got 'xy'",
                id="topology-edges",
            ),
            pytest.param(
                ["metrics", "--topology"], "star_topology.json",
                lambda d: d["edges"].__setitem__(2, "hub-c2"),
                "bad topology: edges[2] must be an object, got 'hub-c2'",
                id="topology-edge-entry",
            ),
        ],
    )
    def test_wrong_type_names_the_field(self, tmp_path, capsys, argv, name, edit, message):
        path = edited_fixture(tmp_path, name, edit)
        code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("sides", ['"01"', '{"0": [1]}', "3"])
    def test_bipartition_list(self, tmp_path, capsys, sides):
        path = tmp_path / "sides.json"
        path.write_text(sides)
        code, out, err = run(
            capsys, "feasibility", "--topology", STAR, "--target", KITE, "--bipartitions", str(path)
        )
        assert code == 2
        assert out == ""
        got = repr(json.loads(sides))
        assert err == f"error: {path}: bad bipartition list: bipartitions must be a list of index lists, got {got}\n"

    @pytest.mark.parametrize(
        "sides, entry",
        [
            ("[5]", "bipartitions[0] must be a list of client indices, got 5"),
            ('[[0], "01"]', "bipartitions[1] must be a list of client indices, got '01'"),
        ],
    )
    def test_bipartition_entry(self, tmp_path, capsys, sides, entry):
        path = tmp_path / "sides.json"
        path.write_text(sides)
        code, out, err = run(
            capsys, "feasibility", "--topology", STAR, "--target", KITE, "--bipartitions", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: bad bipartition list: {entry}\n"

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["contract", "--instance"], "contraction instance"),
            (["code", "compose"], "composition spec"),
            (["code", "distance"], "code"),
            (["feasibility", "--topology", STAR, "--target"], "target graph"),
            (["metrics", "--topology"], "topology"),
        ],
    )
    def test_file_must_hold_an_object(self, tmp_path, capsys, argv, what):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: bad {what}: the top-level value must be a JSON object, got [1]\n"

    def test_bad_role_names_its_entry(self, tmp_path, capsys):
        path = edited_fixture(tmp_path, "star_topology.json", lambda d: d["nodes"][1].update(role=0))
        code, out, err = run(capsys, "metrics", "--topology", path)
        assert code == 2
        assert out == ""
        assert err == f'error: {path}: bad topology: nodes[1].role must be "relay" or "client", got 0\n'


class TestMissingKeys:
    """A required key that is absent exits 2 naming the entry, in the style
    of a wrong type, never as a bare KeyError such as ``'edges'``."""

    TARGET = (["feasibility", "--topology", STAR, "--target"], "kite_target.json", "target graph")
    TOPOLOGY = (["metrics", "--topology"], "star_topology.json", "topology")
    INSTANCE = (["contract", "--instance"], "swap_chain_instance.json", "contraction instance")
    SPEC = (["code", "compose"], "swap_chain_instance.json", "composition spec")
    CODE = (["code", "distance"], "five_qubit_code.json", "code")

    @pytest.mark.parametrize(
        "command, edit, entry",
        [
            (TARGET, lambda d: d.pop("n"), "n"),
            (TARGET, lambda d: d.pop("edges"), "edges"),
            (TOPOLOGY, lambda d: d.pop("nodes"), "nodes"),
            (TOPOLOGY, lambda d: d.pop("edges"), "edges"),
            (TOPOLOGY, lambda d: d["nodes"][0].pop("id"), "nodes[0].id"),
            (TOPOLOGY, lambda d: d["nodes"][0].pop("role"), "nodes[0].role"),
            (TOPOLOGY, lambda d: d["edges"][2].pop("u"), "edges[2].u"),
            (TOPOLOGY, lambda d: d["edges"][2].pop("v"), "edges[2].v"),
            (INSTANCE, lambda d: d.pop("node_states"), "node_states"),
            (INSTANCE, lambda d: d.pop("pairings"), "pairings"),
            (SPEC, lambda d: d.pop("node_states"), "node_states"),
            (SPEC, lambda d: d.pop("pairings"), "pairings"),
            (CODE, lambda d: d.pop("generators"), "generators"),
        ],
    )
    def test_missing_key_names_its_entry(self, tmp_path, capsys, command, edit, entry):
        argv, name, what = command
        path = edited_fixture(tmp_path, name, edit)
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad {what}: {entry} is missing\n"

    def test_optional_keys_may_be_missing(self, tmp_path, capsys):
        # channels, qubit_offsets, convention, n and k have defaults
        topology = edited_fixture(tmp_path, "star_topology.json", lambda d: d["edges"][0].pop("channels"))
        assert run(capsys, "metrics", "--topology", topology)[0] == 0
        instance = edited_fixture(
            tmp_path, "swap_chain_instance.json", lambda d: (d.pop("qubit_offsets"), d.pop("convention"))
        )
        assert run(capsys, "contract", "--instance", instance)[0] == 0
        code = edited_fixture(tmp_path, "five_qubit_code.json", lambda d: (d.pop("n"), d.pop("k")))
        assert run(capsys, "code", "distance", code)[0] == 0


class TestParser:
    def test_built_once_and_reused(self, capsys):
        # a good command, two bad ones (a parse error and an input error),
        # then the good one again: one parser serves them all
        good = ("code", "bounds", "--B", "9", "--m", "3", "--l", "5", "--k", "1", "--d", "3")
        code, first, _ = run(capsys, *good)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["code", "bounds", "--B", "nine"])
        assert exc.value.code == 2
        assert "invalid int value: 'nine'" in capsys.readouterr().err
        code, _, err = run(capsys, "contract", "--instance", "no-such-file.json")
        assert code == 2 and err.startswith("error: cannot read no-such-file.json")
        code, again, _ = run(capsys, *good)
        assert (code, again) == (0, first)
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["feasibility"], ["contract"], ["code", "distance"], ["code", "compose"], ["code", "bounds"], ["metrics"],
        ],
    )
    def test_shared_options_read_alike_everywhere(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert "write output to this path instead of stdout" in " ".join(capsys.readouterr().out.split())
        if argv[-1] in ("distance", "compose"):
            args = build_parser().parse_args([*argv, "f.json"])
            assert (args.weight_cap, args.budget) == (5, DEFAULT_ENUMERATION_BUDGET)

    def test_code_needs_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["code"])
        assert exc.value.code == 2
        assert "required: code_command" in capsys.readouterr().err


class TestInternalError:
    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        # exit 1 means "infeasible / annihilated"; a crash must not read so
        def broken(inst):
            raise RuntimeError("engine bug")

        monkeypatch.setattr("stabnet.cli.contract", broken)
        code, out, err = run(
            capsys, "contract", "--instance", fixture("swap_chain_instance.json")
        )
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: engine bug\n"

    def test_failed_identity_check_exits_three(self, capsys, monkeypatch):
        # the first combined product gets a wrong X bit on contracted qubit 0
        monkeypatch.setattr("stabnet.contraction.times", corrupt_once(0))
        code, out, err = run(capsys, "contract", "--instance", fixture("swap_chain_instance.json"))
        assert (code, out) == (3, "")
        assert err == "internal error: AssertionError: kernel product is not identity on contracted qubits\n"


# Runs the README commands in a fresh interpreter where importing numpy fails.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from stabnet.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_readme_commands_run_without_numpy():
    expected = json.loads((ROOT / "bench" / "expected" / "cli.json").read_text())
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps([e["argv"] for e in expected])],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[e["exit"], e["stdout"]] for e in expected]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("feasibility", "--topology", "star_topology.json", "--target", "kite_target.json"),
            ("contract", "--instance", "swap_chain_instance.json"),
            ("code", "compose", "triangle_composition.json"),
        ],
    )
    def test_reruns_byte_identical(self, capsys, argv):
        argv = [a if not a.endswith(".json") else fixture(a) for a in argv]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "verdict.json"
        code, stdout, _ = run(
            capsys,
            "feasibility",
            "--topology", fixture("star_topology.json"),
            "--target", fixture("ghz_target.json"),
            "--out", str(out_path),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out_path.read_text())["feasible"] is True


def star_files(tmp_path, clients, channels=1, parallel=1):
    """A star topology of ``clients`` clients, each joined to the hub by
    ``parallel`` edges of ``channels`` channels, and a GHZ-class target."""
    nodes = (("hub", "relay"),) + tuple((f"c{i}", "client") for i in range(clients))
    edges = tuple(("hub", f"c{i}", channels) for i in range(clients) for _ in range(parallel))
    topology, target = tmp_path / "star.json", tmp_path / "ghz.json"
    topology.write_text(NetworkTopology(nodes, edges).to_json())
    target.write_text(GraphState.star(clients).to_json())
    return str(topology), str(target)


class TestWriter:
    """``main`` is the one writer: a command returns its output, which goes
    to stdout or ``--out`` alike, and a refusal comes before the first byte."""

    @pytest.mark.parametrize(
        "expected", json.loads((ROOT / "bench" / "expected" / "cli.json").read_text()), ids=lambda e: " ".join(e["argv"][:2])
    )
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsys, expected):
        argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in expected["argv"]]
        out = tmp_path / "out"
        assert run(capsys, *argv) == (expected["exit"], expected["stdout"], "")
        assert run(capsys, *argv, "--out", str(out)) == (expected["exit"], "", "")
        assert out.read_bytes() == expected["stdout"].encode()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["feasibility", "--topology", "nope.json", "--target", fixture("kite_target.json")], "cannot read nope.json"),
            (["contract", "--instance", fixture("kite_target.json")], "bad contraction instance"),
            (["code", "distance", fixture("five_qubit_code.json"), "--weight-cap", "0"], "--weight-cap"),
            (["code", "compose", fixture("triangle_composition.json"), "--distance", "--budget", "10"], "--budget"),
            (["code", "bounds", "--B", "9", "--m", "3", "--l", "5", "--k", "1", "--d", "9"], "--B/--m/--l/--k/--d"),
            (["metrics", "--n", "3", "--p", "1..60000"], "--n/--p"),
        ],
        ids=["feasibility", "contract", "distance", "compose", "bounds", "metrics"],
    )
    def test_refusal_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run(capsys, *argv, *extra)
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("compact", [[], ["--compact"]])
    def test_cut_too_large_to_print_is_refused_first(self, tmp_path, capsys, compact):
        # two parallel edges of 4300 digits give a cut of 4301: the encoder
        # would refuse it halfway through the table, after the first bytes
        limit = sys.get_int_max_str_digits()
        topology, target = star_files(tmp_path, 3, channels=10**limit - 1, parallel=2)
        out = tmp_path / "out"
        for extra in ([], ["--out", str(out)]):
            code, stdout, err = run(capsys, "feasibility", "--topology", topology, "--target", target, *compact, *extra)
            assert (code, stdout) == (2, "")
            assert err == f"error: {topology}: a min_cut has more than {limit} digits, too large to print\n"
        assert not out.exists()

    def test_feasibility_table_is_encoded_as_it_goes(self, tmp_path, capsys):
        # the indented document used to be built as one string before it
        # was written: 5.6 MB here, 1766 MB of RSS at 20 clients
        topology, target = star_files(tmp_path, 12)
        out = tmp_path / "verdict.json"
        build_parser()
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "feasibility", "--topology", topology, "--target", target, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout, err) == (0, "", "")
        assert peak < 3_000_000
        assert len(json.loads(out.read_text())["table"]) == 2**11 - 1

    @pytest.mark.parametrize("compact", [[], ["--compact"]])
    def test_feasibility_document_holds_no_row_objects(self, tmp_path, capsys, compact):
        # 14 clients on a chain of 7 relays, 8191 rows (2.6 MB written, 1.2 MB
        # compact): with each row's dict and name lists encoded by json the
        # run peaked at 4.8 MB (8.0 MB compact); with the rows filled in from
        # the columns, a batch at a time, at 1.2 MB (0.7 MB)
        nodes = tuple((f"r{i}", "relay") for i in range(7)) + tuple((f"c{i}", "client") for i in range(14))
        edges = tuple((f"r{i}", f"r{i + 1}", 7) for i in range(6)) + tuple((f"r{i // 2}", f"c{i}", 1) for i in range(14))
        topology, target, out = tmp_path / "mesh.json", tmp_path / "target.json", tmp_path / "verdict.json"
        topology.write_text(NetworkTopology(nodes, edges).to_json())
        target.write_text(GraphState.cycle(14).to_json())
        build_parser()
        tracemalloc.start()
        try:
            argv = ["feasibility", "--topology", str(topology), "--target", str(target), "--out", str(out), *compact]
            code, stdout, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, stdout, err) == (0, "", "")
        assert peak < 2_000_000
        assert len(json.loads(out.read_text())["table"]) == 2**13 - 1

    @pytest.mark.parametrize("bipartitions", [None, [[0], [0, 1, 2], [0, 1]]], ids=["sweep", "list"])
    @pytest.mark.parametrize("compact", [[], ["--compact"]])
    def test_feasibility_document_is_the_json_encoding(self, tmp_path, capsys, compact, bipartitions):
        # ids that json escapes (quotes, a backslash, a tab, non-ASCII, a
        # character past the BMP), cuts of 4001 digits, and a one-channel
        # link between the two hubs: a table that stops at its first
        # violation and ends with the witness
        ids = ['say "hi"', "back\\slash", "tab\t", "naïve", "量子", "\U0001F642"]
        wide = 10**4000
        nodes = (("hub 0", "relay"), ("hub 1", "relay")) + tuple((c, "client") for c in ids)
        edges = (("hub 0", "hub 1", 1),) + tuple((f"hub {i // 3}", c, wide) for i, c in enumerate(ids))
        t, target = NetworkTopology(nodes, edges), GraphState.from_edges(6, [(0, 3), (1, 4), (2, 5)])
        files = [tmp_path / name for name in ("topology.json", "target.json", "sides.json")]
        files[0].write_text(t.to_json())
        files[1].write_text(target.to_json())
        argv = ["feasibility", "--topology", str(files[0]), "--target", str(files[1]), *compact]
        masks = None
        if bipartitions is not None:
            files[2].write_text(json.dumps(bipartitions))
            argv += ["--bipartitions", str(files[2])]
            masks = [sum(1 << i for i in side) for side in bipartitions]
        verdict = feasibility(t, ids, target, bipartition_list=masks)
        assert not verdict.feasible and len(verdict.table) == (2 if masks else 4)
        expected = reference.document(verdict, compact=bool(compact))
        out = tmp_path / "out"
        assert run(capsys, *argv) == (1, expected, "")
        assert run(capsys, *argv, "--out", str(out)) == (1, "", "")
        assert out.read_bytes() == expected.encode()

    def test_large_contract_document_is_the_json_encoding(self, tmp_path, capsys):
        # 1200 Bell pairs between clients and a two-relay link: 2402 residual
        # generators of 2402 letters, 5.8 MB in 4825 encoder pieces
        pairs = 1200
        nodes = tuple((f"c{i}", "client") for i in range(2 * pairs)) + (("r", "relay"), ("s", "relay"))
        edges = tuple((f"c{2 * i}", f"c{2 * i + 1}", 1) for i in range(pairs)) + (("r", "s", 1), ("r", "c0", 1), ("s", "c1", 1))
        relays = {"r": repetition_state(2), "s": repetition_state(2)}
        inst = to_contraction(NetworkTopology(nodes, edges), relays)[0]
        path, out = tmp_path / "instance.json", tmp_path / "out"
        path.write_text(inst.to_json())
        expected = json.dumps(contract(inst).as_dict(), indent=2, sort_keys=True) + "\n"
        assert run(capsys, "contract", "--instance", str(path)) == (0, expected, "")
        assert run(capsys, "contract", "--instance", str(path), "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("command", ["metrics", "feasibility"])
    def test_closed_reader_ends_the_output_quietly(self, tmp_path, command):
        # the reader stops after one line, as `| head -1` does, and the rest
        # (1.1 MB and 0.6 MB, past a default pipe buffer) is not wanted: the
        # command's own exit code stands and nothing reaches stderr, not even
        # at interpreter exit
        if command == "metrics":
            argv, first = ["metrics", "--n", "2..20000", "--p", "1"], b"n,p,scheme,latency,memory,channels,p_success\n"
        else:
            topology, target = star_files(tmp_path, 12)
            argv, first = ["feasibility", "--topology", topology, "--target", target], b"{\n"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "stabnet.cli", *argv],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:  # closes both pipes and waits
            try:
                assert proc.stdout.readline() == first
                proc.stdout.close()
                assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 0)
            finally:
                proc.kill()
