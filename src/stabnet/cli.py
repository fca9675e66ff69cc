"""Command-line entry point.

Subcommands: ``feasibility`` (min-cut test of a target graph state on a
topology), ``contract`` (run a contraction instance), ``code`` (compose /
distance / bounds), ``metrics`` (latency, memory, channel and success
sweeps as CSV).  Each command returns its output, and ``main`` alone
writes it to stdout or ``--out`` as it goes: a JSON document with sorted
keys so reruns are byte-identical, or pieces of text (CSV lines, or the
feasibility document, filled in from the table's columns a batch of rows
at a time, with the bytes ``json`` would give); a refusal comes before
the first byte, and a reader that closes stdout early ends the output
quietly, with the command's own exit code.  Exit codes are 0 for success
or an affirmative verdict, 1 for a negative verdict, 2 for usage or
input errors and 3 for an internal error (a bug, never a verdict).

File formats are documented in FORMATS.md at the repository root.  Every
setting is a command-line option, declared once and applied in one place;
no environment variable is read.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from .codes import (
    DEFAULT_ENUMERATION_BUDGET,
    StabilizerCode,
    compose,
    distance,
    singleton_max_distance,
    storage_bound,
)
from .contraction import BellConvention, ContractionInstance, Status, contract
from .graphstate import GraphState
from .metrics import NoiseSpec, RegularTreeSpec, Scheme, channel_count, latency, memory_qubits, success_probability
from .network import DEFAULT_MAX_CLIENTS, FeasibilityVerdict, NetworkTopology, check_clients, feasibility, subsets
from .pauli import MinusIdentityError, require_int, require_type

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


Output = tuple[dict | Iterable[str], int]  # a JSON document or pieces of text, and the exit code


def _check_printable(value: int, what: str) -> None:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(value).bit_length() > 3 * limit and abs(value) >= 10**limit:  # 2**(3 * limit) < 10**limit
        raise ValueError(f"{what} has more than {limit} digits, too large to print")


@contextlib.contextmanager
def _naming(source: str):
    """A library refusal raised inside the block names ``source``, the option or file at fault."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _load_json(path: str, loader, what: str):
    text = _read(path)
    try:
        return loader(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise CliError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise CliError(f"{path}: bad {what}: {exc}") from exc


def _a_mask(side: list, count: int, field: str) -> int:
    """The A-side mask of a list of client indices, each an int in 0..count-1,
    that puts some but not all of the clients on side A."""
    mask = 0
    for i in require_type(side, list, field, "a list of client indices"):
        require_int(i, f"index {i!r}")
        if not 0 <= i < count:
            raise ValueError(f"index {i} is not a client index in 0..{count - 1}")
        mask |= 1 << i
    if mask in (0, (1 << count) - 1):  # one side of the cut would be empty
        raise ValueError(f"{field} puts {'no' if mask == 0 else 'every'} client on side A: {side}")
    return mask


def cmd_feasibility(args: argparse.Namespace) -> Output:
    topology = _load_json(args.topology, NetworkTopology.from_json, "topology")
    clients = list(topology.clients) if args.clients is None else args.clients.split(",")
    with _naming("--clients"):
        check_clients(topology, clients)

    def check_n(n: int) -> None:  # client i holds target vertex i
        if n != len(clients):
            source = "--clients names" if args.clients is not None else f"--clients is not given and {args.topology} has"
            raise CliError(f"{args.target}: n is {n}, but {source} {len(clients)} clients")

    target = _load_json(args.target, functools.partial(GraphState.from_json, check_n=check_n), "target graph")
    masks = None
    if args.bipartitions is not None:
        sides = _load_json(args.bipartitions, json.loads, "bipartition list")
        with _naming(f"{args.bipartitions}: bad bipartition list"):
            sides = require_type(sides, list, "bipartitions", "a list of index lists")
            masks = [_a_mask(side, len(clients), f"bipartitions[{k}]") for k, side in enumerate(sides)]
            if not masks:
                raise ValueError("the list is empty, so nothing would be checked")
    verdict = feasibility(topology, clients, target, bipartition_list=masks)
    with _naming(args.topology):  # only channel counts of thousands of digits give such a cut
        _check_printable(max(verdict.table.cuts, default=0), "a min_cut")
    return feasibility_document(verdict, args.compact), EXIT_OK if verdict.feasible else EXIT_NEGATIVE


ROW_BATCH = 1024  # table rows per written piece


def feasibility_document(verdict: FeasibilityVerdict, compact: bool = False) -> Iterator[str]:
    """A verdict of ``feasibility`` as ``json.dumps(document, indent=2,
    sort_keys=True)`` writes it (``indent=None`` when ``compact``), and a
    newline, in pieces of ``ROW_BATCH`` rows filled in from the columns of
    its table (a ``ReportTable``).  The document holds ``feasible``,
    ``note``, ``table`` (each row's ``a`` and ``b`` client lists,
    ``min_cut``, ``ok`` and ``required_rank``) and, when infeasible,
    ``witness``: the last row.  Each client id is encoded once, with
    ``json.dumps``'s defaults, and a side's list is joined from
    ``subsets`` of the encoded ids."""
    table = verdict.table
    names, every = subsets(tuple(map(json.dumps, table.clients))), (1 << len(table.clients)) - 1

    def newline(depth: int) -> str:  # what follows an opening bracket at this depth
        return "" if compact else "\n" + " " * depth

    def comma(depth: int) -> str:
        return "," + (newline(depth) or " ")

    def rows(depth: int, a_masks: Iterable[int], cuts: Iterable[int], ranks: Iterable[int]) -> str:
        """Rows whose braces sit at ``depth``, joined as the items of a list there."""
        key, item, names_at = newline(depth + 2), comma(depth + 2), newline(depth + 4)
        row = (
            f'{{{key}"a": [{names_at}%s{key}]{item}"b": [{names_at}%s{key}]{item}'
            f'"min_cut": %d{item}"ok": %s{item}"required_rank": %d{newline(depth)}}}'
        )
        between = comma(depth + 4)
        return comma(depth).join(
            row % (between.join(names(a)), between.join(names(every ^ a)), cut, "true" if cut >= rank else "false", rank)
            for a, cut, rank in zip(a_masks, cuts, ranks)
        )

    feasible, note = json.dumps(verdict.feasible), json.dumps(verdict.note)
    yield f'{{{newline(2)}"feasible": {feasible}{comma(2)}"note": {note}{comma(2)}"table": ['
    for start in range(0, len(table), ROW_BATCH):
        stop = start + ROW_BATCH
        yield (comma(4) if start else newline(4)) + rows(4, table.a_masks[start:stop], table.cuts[start:stop], table.ranks[start:stop])
    tail = newline(2) + "]" if len(table) else "]"
    if (w := verdict.witness) is not None:
        tail += f'{comma(2)}"witness": ' + rows(2, [w.a_mask], [w.min_cut], [w.required_rank])
    yield tail + newline(0) + "}\n"


def _load_instance(path: str, what: str, convention: str | None) -> ContractionInstance:
    """An instance file, its convention replaced by ``--convention`` when given."""
    inst = _load_json(path, ContractionInstance.from_json, what)
    return inst if convention is None else dataclasses.replace(inst, convention=convention)


def cmd_contract(args: argparse.Namespace) -> Output:
    result = contract(_load_instance(args.instance, "contraction instance", args.convention))
    return result.as_dict(), EXIT_NEGATIVE if result.status is Status.ANNIHILATED else EXIT_OK


def _distance(code: StabilizerCode, args: argparse.Namespace) -> dict:
    """The payload keys of ``code``'s distance: ``distance``, and a ``note`` when it is past
    ``--weight-cap`` or, for k = 0, when there is none to search for."""
    if args.weight_cap < 1:
        raise CliError(f"--weight-cap: must be at least 1, got {args.weight_cap}")
    if code.k == 0:
        return {"distance": None, "note": "k = 0 has no logical operator"}
    with _naming("--budget"):
        d = distance(code, args.weight_cap, budget=args.budget)
    return {"distance": d} if d is not None else {"distance": None, "note": f"greater than cap {args.weight_cap}"}


def cmd_distance(args: argparse.Namespace) -> Output:
    code = _load_json(args.code, StabilizerCode.from_json, "code")
    return {"n": code.n, "k": code.k, "weight_cap": args.weight_cap, **_distance(code, args)}, EXIT_OK


def cmd_compose(args: argparse.Namespace) -> Output:
    # composition specs are contraction instances whose node states are the
    # codes' generator lists; compose keeps their qubit indices in offset order
    inst = _load_instance(args.spec, "composition spec", args.convention)
    placed = sorted(zip(inst.offsets, inst.node_states), key=lambda pair: pair[0])
    codes = [StabilizerCode(group) for _, group in placed]
    try:
        composed = compose(codes, inst.pairings, inst.convention)
    except MinusIdentityError as exc:
        return {"error": str(exc), "status": "ANNIHILATED"}, EXIT_NEGATIVE
    payload = composed.as_dict()
    if args.distance:
        payload.update(_distance(composed, args))
    payload["convention"] = inst.convention.value
    return payload, EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> Output:
    with _naming("--B/--m/--l/--k/--d"):
        bound = storage_bound(args.boundary, args.m, args.l, args.k, args.d)
        _check_printable(bound, "storage_bound")
    return {
        "singleton_max_distance": singleton_max_distance(args.boundary, args.k * args.m),
        "storage_bound": bound,
        "parameters": {name: getattr(args, name) for name in ("boundary", "m", "l", "k", "d")},
    }, EXIT_OK


def _parse_range(option: str, text: str) -> Sequence[int]:
    lo, dots, hi = text.partition("..")
    try:  # a range stays lazy: its length is not bounded
        values = range(int(lo), int(hi) + 1) if dots else [int(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{option}: bad range {text!r}, expected a value like 3, a list like 2,4 or a range like 1..6") from None
    if not values:
        raise CliError(f"{option}: empty range {text!r}, its end is below its start")
    return values


def _printable(n: int, p: int, limit: int) -> bool:
    """Whether str() prints every figure of tree (n, p) under its ``limit``
    digits (0: no limit).  The largest figure is the EPR channel count
    n**p * p, or the LQC memory n + 1 when p = 1; it is built only when its
    digit count is within about one of the limit."""
    if not limit:
        return True
    log10_n = math.log10(n)
    if p > (limit + 1) / log10_n:  # n**p alone has more than limit + 1 digits
        return False
    if p * log10_n + math.log10(p) < limit - 1:
        return True
    return max(n**p * p, n + 1) < 10**limit


def _check_trees(ns: Sequence[int], ps: Sequence[int]) -> None:
    """Refuse the sweep at its first tree that is invalid or has a figure
    too large to print, before any figure is built; no tree is kept."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for n in ns:
        for p in ps:
            with _naming("--n/--p"):
                RegularTreeSpec(n, p)
                if not _printable(n, p, limit):
                    raise ValueError(f"n={n}, p={p} gives a figure of more than {limit} digits, too large to print")


def cmd_metrics(args: argparse.Namespace) -> Output:
    rows: Iterable[str]
    header = "n,p,scheme,latency,memory,channels,p_success"
    with _naming("--noise"):
        noise = NoiseSpec(args.noise) if args.noise is not None else None

    def p_success(channels: int) -> str:
        return "" if noise is None else f"{success_probability(noise, channels):.12g}"

    tree_options = [opt for opt, value in (("--n", args.n), ("--p", args.p)) if value is not None]
    if args.topology is not None:
        if tree_options:
            raise CliError(f"{' and '.join(tree_options)} cannot be combined with --topology")
        topology = _load_json(args.topology, NetworkTopology.from_json, "topology")
        if args.center is not None and args.center not in topology.node_ids:
            raise CliError(f"--center: {args.center!r} is not a node of {args.topology}")
        rows = []
        for scheme in (Scheme.LQC, Scheme.EPR):
            with _naming(args.topology):
                channels = channel_count(topology, scheme, center=args.center)
                _check_printable(channels, f"the {scheme.value} channel count")
            rows.append(f",,{scheme.value},,,{channels},{p_success(channels)}")
    elif args.center is not None:
        raise CliError("--center needs --topology")
    elif not tree_options:
        raise CliError("nothing to sweep: give --n and --p, or --topology")
    elif len(tree_options) == 1:
        missing = "--p" if args.p is None else "--n"
        raise CliError(f"{missing} is required with {tree_options[0]}")
    else:
        ns, ps = _parse_range("--n", args.n), _parse_range("--p", args.p)
        _check_trees(ns, ps)

        def tree_rows() -> Iterator[str]:  # one tree at a time: a sweep's rows are written as they come
            for spec in (RegularTreeSpec(n, p) for n in ns for p in ps):
                for scheme in (Scheme.LQC, Scheme.EPR):
                    channels = channel_count(spec, scheme)
                    figures = ",".join(map(str, (latency(spec, scheme), memory_qubits(spec, scheme), channels)))
                    yield f"{spec.n},{spec.p},{scheme.value},{figures},{p_success(channels)}"

        rows = tree_rows()
    return (line + "\n" for line in itertools.chain([header], rows)), EXIT_OK


@functools.cache  # built on first use, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabnet",
        description="Stabilizer-state distribution toolkit: feasibility, "
        "contraction, code composition, and comparison metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this path instead of stdout")
    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument(
        "--convention", choices=[c.value for c in BellConvention], help="Bell convention, in place of the file's"
    )
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--weight-cap", type=int, default=5, help="largest weight searched (default: %(default)s)")
    search.add_argument(
        "--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET, help="distance candidate budget (default: %(default)s)"
    )

    p = sub.add_parser("feasibility", parents=[out], help="min-cut vs entanglement-rank test")
    p.add_argument("--topology", required=True, help="topology JSON file")
    p.add_argument("--target", required=True, help="target graph JSON file")
    p.add_argument("--clients", help="comma-separated client ids (default: all clients in node order)")
    p.add_argument(
        "--bipartitions",
        help="JSON file with explicit A-side index lists; required above "
        f"{DEFAULT_MAX_CLIENTS} clients, where the exhaustive sweep stops",
    )
    p.add_argument("--compact", action="store_true", help="single-line JSON output")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("contract", parents=[out, convention], help="contract a stabilizer instance")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("code", help="stabilizer code operations")
    code_sub = p.add_subparsers(dest="code_command", required=True)

    pc = code_sub.add_parser("distance", parents=[out, search], help="brute-force distance")
    pc.add_argument("code", help="code JSON file")
    pc.set_defaults(func=cmd_distance)

    pc = code_sub.add_parser("compose", parents=[out, convention, search], help="compose codes by Bell contraction")
    pc.add_argument("spec", help="composition spec JSON file")
    pc.add_argument("--distance", action="store_true", help="also compute the distance")
    pc.set_defaults(func=cmd_compose)

    pc = code_sub.add_parser("bounds", parents=[out], help="singleton and storage bounds")
    pc.add_argument("--boundary", "--B", dest="boundary", type=int, required=True)
    pc.add_argument("--m", type=int, required=True, help="number of composed codes")
    pc.add_argument("--l", type=int, required=True, help="physical qubits per code")
    pc.add_argument("--k", type=int, required=True, help="logical qubits per code")
    pc.add_argument("--d", type=int, required=True, help="distance per code")
    pc.set_defaults(func=cmd_bounds)

    p = sub.add_parser("metrics", parents=[out], help="comparison sweeps as CSV")
    p.add_argument("--n", help="connectivity value or range, e.g. 3 or 2..4")
    p.add_argument("--p", help="depth value or range, e.g. 1..6")
    p.add_argument("--noise", type=float, help="per-channel failure probability")
    p.add_argument("--topology", help="channel counts from a topology file instead of a tree spec")
    p.add_argument("--center", help="EPR central node id (default: best relay)")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output, code = args.func(args)
        with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as stream:
            if isinstance(output, dict):  # never held whole: json.dump writes the encoder's pieces as they come
                json.dump(output, stream, indent=2, sort_keys=True)
                stream.write("\n")
            else:
                stream.writelines(output)
        return code
    except BrokenPipeError:  # the reader closed the pipe: it wants no more, which is no error
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug must not read as a negative verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
