"""Bell-pair contraction of stabilizer node states.

Gluing a set of node states along Bell pairs leaves a residual
stabilizer group on the unpaired (boundary) qubits.  The instance keeps
its layout as its checks compute it: the qubit count from the node blocks,
the boundary from the paired qubits.  :func:`contract` builds the
operators, each node generator shifted by its block's offset and then
each pairing's two Bell-pair generators.  The residual is extracted
without simulating measurements: stack the operators as symplectic rows,
restrict the rows to the contracted qubit columns, and compute the GF(2)
kernel.  The rows are built from bits, in that order: a node row is its
generator's shifted X-before-Z bits masked to the contracted columns, and
a Bell row is its letters, two shifts of the convention's generator bits
on qubits 0 and 1, which lie on contracted qubits only.  The order fixes
the kernel basis, and so the printed generators.  Each distinct node group
is read once per call, its generators' X-before-Z forms kept in a dict
keyed by the group's identity that lives only while the rows are built: a
ring of one code, or a tree whose links share one Bell group, repeats the
same object at many offsets.  The convention's generator bits and its
closing sign are cached beside :func:`bell_group`.  Each row carries its
operator through that elimination, the node part as an exact product
(:func:`stabnet.pauli.times`) and the Bell part as its letters, so each
kernel basis vector comes back as its product with an exact sign, not as
a mask to multiply out afterwards.  The products are identity on the
contracted qubits.  Each is read straight into its boundary operator: the
phase from its X-before-Z form and the closing sign of its YY pairs, the
boundary bits moved to residual qubits.  The :class:`StabilizerGroup`
built from those, in one elimination, is the residual.

If some product materializes to -I the Bell projection annihilates the
state (status ANNIHILATED).  If the residual has fewer independent
generators than boundary qubits the result is a proper code space
(status MIXED); with full-rank node states this only happens when the
instance ignores the usual connectivity assumption.  A fully contracted
instance takes the same path: its candidates are n = 0 scalars +-1, and
its residual is the empty group on zero qubits.  Each Bell convention is
a letter pair, parsed once into a two-qubit group; Pauli bits and the row
layout come from :mod:`stabnet.pauli`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, filterfalse

from . import gf2
from .pauli import (
    MinusIdentityError,
    PauliOperator,
    StabilizerGroup,
    product,
    require_int,
    require_key,
    require_type,
    symplectic,
    times,
    xz_form,
)


class BellConvention(Enum):
    """Which two-qubit state the contracted pairs are projected onto."""

    PLUS_PAIR = "plus-pair"  # |00>+|11>: the group closes with -YY
    GRAPH_EDGE = "graph-edge"  # CZ|++>: the group closes with +YY


_BELL_STABILIZERS = {
    BellConvention.PLUS_PAIR: ("XX", "ZZ"),
    BellConvention.GRAPH_EDGE: ("XZ", "ZX"),
}


@functools.cache
def bell_group(convention: BellConvention) -> StabilizerGroup:
    """The Bell pair itself as a two-qubit stabilizer group."""
    return StabilizerGroup.from_strings(_BELL_STABILIZERS[convention])


@functools.cache
def _bell_bits(convention: BellConvention) -> tuple[tuple[tuple[int, int], ...], int]:
    """``bell_group``'s generators a and b as (x, z) bits on qubits 0 and 1,
    in the order a0, a1, b0, b1, and the phase of a * b: the sign of the
    closing element."""
    a, b = bell_group(convention).generators
    return tuple((g.x >> q & 1, g.z >> q & 1) for g in (a, b) for q in (0, 1)), product((a, b), 2).phase


class Status(Enum):
    PURE = "PURE"
    MIXED = "MIXED"
    ANNIHILATED = "ANNIHILATED"


@dataclass(frozen=True)
class ContractionInstance:
    """Node stabilizer groups on consecutive global qubit blocks plus the
    disjoint qubit pairs to be projected onto the Bell state.  The checks
    set ``total_qubits`` and ``boundary``, the unpaired qubits in order."""

    node_states: tuple[StabilizerGroup, ...]
    pairings: tuple[tuple[int, int], ...]
    convention: BellConvention = BellConvention.PLUS_PAIR
    offsets: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        # Each check builds its message only on a refusal.  The first refusal
        # follows this order: every entry's type, then pair by pair its length
        # and qubits, the offsets, the convention, the blocks, the pairs.
        nodes = tuple(self.node_states)
        pairings = tuple(self.pairings)
        for k, p in enumerate(pairings):
            if not isinstance(p, (list, tuple)):
                require_type(p, (list, tuple), f"pairings[{k}]", "a qubit pair")
        pairings = tuple(map(tuple, pairings))
        offsets = tuple(self.offsets)
        for k, pair in enumerate(pairings):
            if len(pair) != 2:
                raise ValueError(f"pairings[{k}] has {len(pair)} entries, expected 2")
            if type(pair[0]) is not int or type(pair[1]) is not int:
                for side, q in enumerate(pair):
                    require_int(q, f"pairings[{k}][{side}]")
        for k, off in enumerate(offsets):
            if type(off) is not int:
                require_int(off, f"qubit_offsets[{k}]")
        try:
            convention = BellConvention(self.convention)
        except ValueError:
            raise ValueError(f'convention must be "plus-pair" or "graph-edge", got {self.convention!r}') from None
        if not nodes:
            raise ValueError("need at least one node state")
        if not offsets:
            offsets = tuple(accumulate((g.n for g in nodes[:-1]), initial=0))
        if len(offsets) != len(nodes):
            raise ValueError("one offset per node state required")
        sizes = [g.n for g in nodes]
        # sorted by start, the non-empty blocks tile 0..total-1 when each one
        # starts where the one before it stops: no set as wide as an offset
        stop = 0
        tiled = True
        for k, (start, end) in enumerate(sorted((off, off + size) for off, size in zip(offsets, sizes) if size)):
            if start < stop and k:
                raise ValueError("node qubit blocks overlap")
            tiled &= start == stop
            stop = end
        total = max(off + size for off, size in zip(offsets, sizes))
        if not tiled or total > stop:
            raise ValueError("node blocks must cover qubits 0..total-1 exactly")
        seen: set[int] = set()
        for i, j in pairings:
            if i == j:
                raise ValueError(f"pairing ({i}, {j}) repeats a qubit")
            for q in (i, j):
                if not 0 <= q < total:
                    raise ValueError(f"paired qubit {q} does not exist")
                if q in seen:
                    raise ValueError(f"qubit {q} appears in two pairings")
                seen.add(q)
        # a frozen instance refuses setattr; its __dict__ takes the fields
        fields = vars(self)
        fields.update(node_states=nodes, pairings=pairings, offsets=offsets, convention=convention)
        # the layout the checks computed; not fields, so not compared or printed
        fields.update(total_qubits=total, boundary=tuple(filterfalse(seen.__contains__, range(total))))

    def to_json(self) -> str:
        return json.dumps(
            {
                "node_states": [g.to_strings() for g in self.node_states],
                "qubit_offsets": list(self.offsets),
                "pairings": [list(p) for p in self.pairings],
                "convention": self.convention.value,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> ContractionInstance:
        data = require_type(json.loads(text), dict, "the top-level value", "a JSON object")
        states = require_type(require_key(data, "node_states"), list, "node_states", "a list of node states")
        nodes = tuple(
            StabilizerGroup.from_strings(strings, field=f"node_states[{k}]")
            for k, strings in enumerate(states)
        )
        return cls(
            node_states=nodes,
            pairings=require_type(require_key(data, "pairings"), list, "pairings", "a list of qubit pairs"),
            convention=data.get("convention", BellConvention.PLUS_PAIR),
            offsets=require_type(data.get("qubit_offsets", []), list, "qubit_offsets", "a list of integers"),
        )


@dataclass(frozen=True)
class ContractionResult:
    """Residual group on the boundary qubits.

    ``boundary[k]`` is the global index of residual qubit ``k``.  The
    normalization bookkeeping is ``rho_boundary = 2**log_norm_exponent *
    P`` with P the projector onto the residual group's +1 eigenspace.
    """

    status: Status
    residual: StabilizerGroup
    boundary: tuple[int, ...]
    log_norm_exponent: int

    def as_dict(self) -> dict:
        return {
            "status": self.status.value,
            "residual": self.residual.to_strings(),
            "boundary": list(self.boundary),
            "log_norm_exponent": self.log_norm_exponent,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def contract(inst: ContractionInstance) -> ContractionResult:
    """Residual stabilizer group left on the boundary after Bell projection."""
    n = inst.total_qubits
    boundary = inst.boundary
    contracted = sum(1 << i | 1 << j for i, j in inst.pairings)  # validation keeps the pairs disjoint
    on_boundary = ((1 << n) - 1) ^ contracted
    columns = symplectic(contracted, contracted, n)
    # each node generator shifted by its block's offset, then each pairing's
    # Bell group generators, their qubits 0 and 1 moved to i and j; a row's
    # witness is its node part in X-before-Z form, tagged with its Bell
    # letters as a symplectic row.  A node row is its witness's bits on the
    # contracted columns; a Bell row is its letters, which lie on contracted
    # qubits only and so need no mask.  Each distinct group's forms are read
    # once per call, keyed by identity: the instance holds every group for
    # the whole call.  The forms are dropped before the elimination, whose
    # memory peak they would otherwise raise.
    forms: dict[int, list] = {}
    witnesses = []
    for group, off in zip(inst.node_states, inst.offsets):
        read = forms.get(id(group))
        if read is None:
            read = forms[id(group)] = list(map(xz_form, group.generators))
        witnesses += [(x << off, z << off, c, 0) for x, z, c, _ in read]
    del forms
    rows = [symplectic(x, z, n) & columns for x, z, _, _ in witnesses]
    bits, closing = _bell_bits(inst.convention)
    a0, a1, b0, b1 = (symplectic(x, z, n) for x, z in bits)
    for i, j in inst.pairings:
        first, second = a0 << i | a1 << j, b0 << i | b1 << j
        witnesses += ((0, 0, 0, first), (0, 0, 0, second))
        rows += (first, second)
    kernel = gf2.left_kernel(rows, witnesses, times)

    # The node generators commute, and so do the Bell generators, so a
    # relation's ordered product is N * B, each accumulated in any order.
    # On a kernel relation N and B hold the same letters on every contracted
    # qubit and B is the identity on the boundary, so N * B is sign(B) times
    # N on the boundary.  B holds a pair's closing element (YY in both
    # conventions, the only Bell letters with a Y) where it takes both of
    # the pair's generators, so sign(B) is the closing sign per YY pair.
    # N is read straight off its X-before-Z form: its phase restores the Y
    # letters, and its boundary bits map to the residual's qubits.
    bit_of = {q: 1 << k for k, q in enumerate(boundary)}
    candidates = []
    for x, z, c, letters in kernel:
        xz = x | z
        if xz >> n:
            raise ValueError("x/z bits extend beyond the qubit count")
        if symplectic(x, z, n) & columns != letters:
            raise AssertionError("kernel product is not identity on contracted qubits")
        yy_pairs = (letters & letters >> n).bit_count() // 2
        phase = (c - (x & z).bit_count() + closing * yy_pairs) % 4
        bx = bz = 0
        rest = xz & on_boundary
        while rest:
            low = rest & -rest
            bit = bit_of[low.bit_length() - 1]
            if x & low:
                bx |= bit
            if z & low:
                bz |= bit
            rest ^= low
        candidates.append(PauliOperator(len(boundary), bx, bz, phase))

    # validation keeps the pairs disjoint: 2 * len(pairings) paired qubits
    exponent = 2 * len(inst.pairings) - len(witnesses) + len(kernel)
    try:
        residual = StabilizerGroup(len(boundary), tuple(candidates))
    except MinusIdentityError:
        return ContractionResult(
            Status.ANNIHILATED, StabilizerGroup(len(boundary), ()), boundary, 0
        )
    status = Status.PURE if len(residual) == len(boundary) else Status.MIXED
    return ContractionResult(status, residual, boundary, exponent)
