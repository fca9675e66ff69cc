"""Fuzz the CLI's file inputs with mutated fixtures, and its option values.

Each fixture is read as JSON, mutated once (a key or entry dropped, a value
swapped for one of another type or for a huge or negative integer, the
text truncated, or the text wrapped in brackets, up to deeper than the
JSON parser's recursion limit) and fed to every command that reads it.
Whatever the mutation, the command exits 0, 1 or 2: never 3, which is a
bug, and never with a traceback.  An exit 2 names the mutated file on
stderr.  Option values (sweep ranges, noise, code bounds, the distance
search's cap and budget, client lists) are drawn the same way and must
exit as cleanly.  Runs are derandomized, so every run tries the same inputs.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabnet.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STAR, KITE = str(FIXTURES / "star_topology.json"), str(FIXTURES / "kite_target.json")
BOTTLENECK, CYCLE = str(FIXTURES / "bottleneck_topology.json"), str(FIXTURES / "cycle_target.json")

# the commands that read each fixture; None stands for the mutated file
COMMANDS = {
    "star_topology.json": [["feasibility", "--topology", None, "--target", KITE], ["metrics", "--topology", None]],
    "bottleneck_topology.json": [["feasibility", "--topology", None, "--target", CYCLE]],
    "tree_depth2_topology.json": [["metrics", "--topology", None]],
    "cycle_target.json": [["feasibility", "--topology", BOTTLENECK, "--target", None]],
    "ghz_target.json": [["feasibility", "--topology", STAR, "--target", None]],
    "kite_target.json": [["feasibility", "--topology", STAR, "--target", None, "--compact"]],
    "annihilating_instance.json": [["contract", "--instance", None], ["code", "compose", None]],
    "swap_chain_instance.json": [["contract", "--instance", None], ["code", "compose", None]],
    "triangle_composition.json": [["contract", "--instance", None], ["code", "compose", None, "--distance"]],
    "five_qubit_code.json": [["code", "distance", None]],
    "kite_bipartitions.json": [["feasibility", "--topology", STAR, "--target", KITE, "--bipartitions", None]],
}

OTHER_TYPES = ["x", "01", "", [], [0], {}, {"id": "c0"}, 1.5, True, None]
INTEGERS = [-1, 0, 1, 3_000_000, -(10**18), 10**18, 2**64]
DEPTHS = [1, 50, 3000]  # bracket runs around the text; 3000 passes the parser's recursion limit
drop = object()  # stands for "delete the value" in a mutation


def paths(value, prefix=()):
    """The key path of every value inside ``value``, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from paths(item, prefix + (key,))


def mutated(data, path, replacement):
    """A copy of ``data`` with the value at ``path`` replaced, or dropped
    when ``replacement`` is ``drop``."""
    if not path:
        return replacement
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if replacement is drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return data


def run(argv):
    """The exit code, argparse's usage exit included, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def exits_cleanly(*argv):
    code, err = run(list(argv))
    assert code in (0, 1, 2), err
    assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_fixture_exits_cleanly(tmp_path, name):
    text = (FIXTURES / name).read_text()
    data = json.loads(text)
    every_path = list(paths(data))
    file = tmp_path / name

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def check(draw):
        kind = draw.draw(st.sampled_from(["drop", "type", "integer", "truncate", "nest"]), label="kind")
        if kind == "truncate":
            mutant = text[: draw.draw(st.integers(0, len(text) - 1), label="length")]
        elif kind == "nest":
            depth = draw.draw(st.sampled_from(DEPTHS), label="depth")
            mutant = "[" * depth + text + "]" * depth
        else:
            path = draw.draw(st.sampled_from(every_path[1:] if kind == "drop" else every_path), label="path")
            value = {"drop": st.just(drop), "type": st.sampled_from(OTHER_TYPES), "integer": st.sampled_from(INTEGERS)}
            mutant = json.dumps(mutated(data, path, draw.draw(value[kind], label="value")))
        file.write_text(mutant)
        for argv in COMMANDS[name]:
            code, err = run([str(file) if a is None else a for a in argv])
            assert code in (0, 1, 2), err
            assert "Traceback" not in err
            if code == 2:
                assert str(file) in err, err

    check()


FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)
NOT_NUMBERS = ["", "x", "2.5", "1..", "..", "1..2..3", " 3", "1,,2", "+7", "1_0", "0x10", "-", "9" * 4301]
# sweep values: a huge one is refused before its figures are built
VALUES = st.one_of(st.integers(-3, 3000), st.sampled_from([10**9, 10**30, 2**64, 10**4299]))
SMALL = st.integers(-3, 40)
SWEEP = st.one_of(
    VALUES.map(str),
    st.lists(VALUES, min_size=1, max_size=3).map(lambda vs: ",".join(map(str, vs))),
    st.tuples(SMALL, SMALL).map(lambda r: f"{r[0]}..{r[1]}"),  # reversed when r[0] > r[1]
    st.sampled_from(NOT_NUMBERS),
)
NOISE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.1", "-0", "0", "1", "1.5", "0.1", "1e-320", "x", ""]),
    st.floats().map(repr),
)
INTEGER_OPTIONS = st.one_of(
    st.integers(-3, 12), st.sampled_from([10**18, -(10**30), 10**4299]).map(str), st.sampled_from(NOT_NUMBERS)
)


@FUZZ
@given(n=SWEEP, p=SWEEP, noise=st.one_of(st.none(), NOISE))
@example(n="2", p="2000", noise="0.1")  # 2**2000 * 2000 channels: once an OverflowError
def test_metrics_sweep_options(n, p, noise):
    exits_cleanly("metrics", f"--n={n}", f"--p={p}", *([] if noise is None else [f"--noise={noise}"]))


@FUZZ
@given(
    small=SWEEP,
    lo=SMALL,
    hi=st.sampled_from([10**6, 10**9, 10**30]),
    deep=st.integers(15000, 10**9),
    noise=st.one_of(st.none(), NOISE),
)
def test_metrics_huge_ranges(small, lo, hi, deep, noise):
    # a range is never listed out, and a sweep that reaches a figure too
    # large to print stops there: each n here meets one within 15000 levels
    extra = [] if noise is None else [f"--noise={noise}"]
    exits_cleanly("metrics", f"--n={small}", f"--p={lo}..{hi}", *extra)
    exits_cleanly("metrics", f"--n={lo}..{hi}", f"--p={deep}", *extra)


@FUZZ
@given(values=st.tuples(*[INTEGER_OPTIONS] * 5))
def test_code_bounds_integers(values):
    names = ("--boundary", "--m", "--l", "--k", "--d")
    exits_cleanly("code", "bounds", *(f"{name}={value}" for name, value in zip(names, values)))


@FUZZ
@given(cap=INTEGER_OPTIONS, budget=INTEGER_OPTIONS)
def test_distance_search_options(cap, budget):
    options = (f"--weight-cap={cap}", f"--budget={budget}")
    exits_cleanly("code", "distance", str(FIXTURES / "five_qubit_code.json"), *options)
    exits_cleanly("code", "compose", str(FIXTURES / "triangle_composition.json"), "--distance", *options)


CLIENT_WORDS = ["c0", "c1", "c2", "c3", "c4", "hub", "", "zz", " c0", "C0"]


@FUZZ
@given(clients=st.one_of(st.lists(st.sampled_from(CLIENT_WORDS), max_size=7).map(",".join), st.text(max_size=12)))
def test_clients_option(clients):
    exits_cleanly("feasibility", "--topology", STAR, "--target", KITE, f"--clients={clients}")
