"""Per-layer tracing by patching stabnet's functions from outside.

``Tracer.install`` replaces each traced function with a timing wrapper at
every name a caller can look it up by: each ``stabnet`` module attribute
bound to the function object, or the class attribute for a method.
``uninstall`` puts every original back.  Nothing under ``src/`` changes.

Each call is a span: its name, its duration and the span that was open
when it started (its parent).  Spans are folded into aggregates as they
close, so memory stays flat over millions of calls:

- per name: calls, busy time (outermost calls only, so recursion is not
  counted twice) and self time (duration minus time in traced children);
- per (parent, child) edge: calls and time, the call tree with parents;
- counters read off arguments and results at the same boundaries.

The sum of all self times is the time spent inside traced calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench"

# (span name, module, attribute); a dotted attribute is a method of a class.
# Targets missing from the code under test are skipped and report zero.
TARGETS = (
    ("cli.main", "stabnet.cli", "main"),
    ("network.feasibility", "stabnet.network", "feasibility"),
    ("network.min_cut", "stabnet.network", "min_cut"),
    ("network.to_contraction", "stabnet.network", "to_contraction"),
    ("graphstate.bipartitions", "stabnet.graphstate", "bipartitions"),
    ("graphstate.entanglement_rank", "stabnet.graphstate", "entanglement_rank"),
    ("contraction.contract", "stabnet.contraction", "contract"),
    ("codes.compose", "stabnet.codes", "compose"),
    ("codes.distance", "stabnet.codes", "distance"),
    ("pauli.product", "stabnet.pauli", "product"),
    ("pauli.reduce_generators", "stabnet.pauli", "reduce_generators"),
    ("pauli.parse_pauli", "stabnet.pauli", "parse_pauli"),
    ("pauli.StabilizerGroup.init", "stabnet.pauli", "StabilizerGroup.__post_init__"),
    ("gf2.left_kernel", "stabnet.gf2", "left_kernel"),
    ("gf2.rank_packed", "stabnet.gf2", "rank_packed"),
    ("gf2.Eliminator.add", "stabnet.gf2", "Eliminator.add"),
    ("gf2.Eliminator.solve", "stabnet.gf2", "Eliminator.solve"),
    ("metrics.channel_count", "stabnet.metrics", "channel_count"),
)

# Generator functions: the span covers each step of the iteration, so the
# time is spent producing items, not merely creating the generator.
GENERATORS = {"graphstate.bipartitions"}
_DONE = object()


def _count_contract(tracer: Tracer, args, kwargs, result) -> None:
    inst = args[0] if args else kwargs["inst"]
    tracer.counters["contraction.rows"] += sum(len(g) for g in inst.node_states) + 2 * len(
        inst.pairings
    )
    tracer.counters["contraction.boundary"] += len(result.boundary)


def _count_kernel(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.current() == "contraction.contract":
        tracer.counters["contraction.kernel_dim"] += len(result)


COUNTERS = {
    "contraction.contract": _count_contract,
    "gf2.left_kernel": _count_kernel,
}


def stabnet_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "stabnet" or n.startswith("stabnet.")]


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {name: _Stat() for name, _, _ in TARGETS}
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, time in children]
        self._patched: list[tuple[object, str, object]] = []

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else ROOT_SPAN

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self.stats[name].active += 1
        return frame

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        stat = self.stats[frame[0]]
        stat.active -= 1
        stat.calls += 1
        if not stat.active:
            stat.busy += elapsed
        stat.self_time += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        edge = self.edges[(self.current(), frame[0])]
        edge[0] += 1
        edge[1] += elapsed

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        perf = time.perf_counter
        tracer = self

        if name in GENERATORS:

            def step_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    start = perf()
                    try:
                        item = next(iterator, _DONE)
                    finally:
                        tracer._close(frame, perf() - start)
                    if item is _DONE:
                        return
                    yield item

            return functools.wraps(fn)(step_wrapper)

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf() - start)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = stabnet_modules()
        by_name = {m.__name__: m for m in modules}
        for name, module_name, attr in TARGETS:
            module = by_name.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and method in vars(cls):
                    self._patch(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.s`` (busy) and ``<span>.self_s`` for
        every target, plus the counters."""
        values: dict[str, float] = {}
        for name, stat in self.stats.items():
            values[f"{name}.calls"] = stat.calls
            values[f"{name}.s"] = stat.busy
            values[f"{name}.self_s"] = stat.self_time
        for name in ("contraction.rows", "contraction.kernel_dim", "contraction.boundary"):
            values[name] = self.counters[name]
        return values

    def self_time_total(self) -> float:
        return sum(stat.self_time for stat in self.stats.values())

    def edge_table(self) -> list[dict]:
        return [
            {"parent": parent, "child": child, "calls": calls, "s": round(seconds, 6)}
            for (parent, child), (calls, seconds) in sorted(self.edges.items())
        ]
