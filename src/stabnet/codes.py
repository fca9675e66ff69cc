"""Stabilizer codes: the five-qubit fixture, composition by Bell
contraction, brute-force distance, and the singleton / distributed-storage
bounds.

Distance is found by exhaustive search ordered by weight with early
exit.  A candidate is a logical operator when it commutes with every
generator but its bit pattern is not in the group (membership is decided
on patterns, so a sign-flipped stabilizer counts as a member: it acts on
the code space as a global phase).  Commuting is read off syndrome tables
built once per code: bit j of a letter's mask says that it anticommutes
with generator j, a candidate's syndrome is the XOR of its letters' masks,
and only a zero syndrome gets the membership solve.  The search refuses
to start if the candidate count up to the cap would exceed the budget.
The letters' syndromes and rows come from :func:`stabnet.pauli.letter_rows`.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb

from .contraction import (
    BellConvention,
    ContractionInstance,
    Status,
    contract,
)
from .pauli import MinusIdentityError, StabilizerGroup, letter_rows, require_int, require_key, require_type

DEFAULT_ENUMERATION_BUDGET = 10**8


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k, d]] code: n - k independent generators on n qubits."""

    group: StabilizerGroup
    distance: int | None = None

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def k(self) -> int:
        return self.group.n - len(self.group.generators)

    def as_dict(self) -> dict:
        payload = {"n": self.n, "k": self.k, "generators": self.group.to_strings()}
        if self.distance is not None:
            payload["distance"] = self.distance
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> StabilizerCode:
        data = require_type(json.loads(text), dict, "the top-level value", "a JSON object")
        for name in ("n", "k", "distance"):
            if name in data:
                require_int(data[name], name)
        if data.get("n", 0) < 0:
            raise ValueError(f"n must be >= 0, got {data['n']}")
        if data.get("distance", 1) < 1:
            raise ValueError(f"distance must be >= 1, got {data['distance']}")
        code = cls(StabilizerGroup.from_strings(require_key(data, "generators"), n=data.get("n")), data.get("distance"))
        if "k" in data and data["k"] != code.k:
            raise ValueError(f"stated k={data['k']} but {code.n - code.k} generators on {code.n} qubits give k={code.k}")
        most = singleton_max_distance(code.n, code.k)
        if code.distance is not None and code.distance > most:
            raise ValueError(
                f"distance {code.distance} breaks the quantum Singleton bound: "
                f"an [[{code.n}, {code.k}]] code has distance at most {most}"
            )
        return code


def five_qubit_code() -> StabilizerCode:
    """The [[5, 1, 3]] code."""
    group = StabilizerGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
    return StabilizerCode(group, distance=3)


def compose(
    codes: Sequence[StabilizerCode],
    pairings: Sequence[tuple[int, int]],
    convention: BellConvention | str = BellConvention.PLUS_PAIR,
) -> StabilizerCode:
    """Contract physical qubits of several codes pairwise through Bell pairs.

    Qubits are indexed globally: code i occupies the block starting at
    sum of the preceding code sizes.  The composed code lives on the
    unpaired qubits; its logical count is boundary size minus residual
    generator count.  Raises :class:`MinusIdentityError` when the
    contraction annihilates the composed code space.
    """
    inst = ContractionInstance(
        node_states=tuple(c.group for c in codes),
        pairings=tuple(pairings),
        convention=convention,
    )
    result = contract(inst)
    if result.status is Status.ANNIHILATED:
        raise MinusIdentityError("contraction produced -I: empty composed code space")
    return StabilizerCode(result.residual)


def distance(
    code: StabilizerCode,
    weight_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int | None:
    """Minimum weight of an undetectable logical operator, or None if it
    exceeds ``weight_cap``.  A k = 0 code (a stabilizer state) has no
    logical operator at any weight, so it gets None at every cap, after
    every candidate up to the cap was tried.

    Each weight-w candidate is split into its first w - 1 letters, walked
    with a running syndrome and row, and a last letter looked up by the
    syndrome it must cancel."""
    if weight_cap < 1:
        raise ValueError("weight_cap must be >= 1")
    n = code.n
    cap = min(weight_cap, n)
    total = sum(comb(n, w) * 3**w for w in range(1, cap + 1))
    if total > budget:
        raise ValueError(f"{total} candidates up to weight {weight_cap} exceed the budget {budget}")
    letters = letter_rows(code.group.generators, n)
    # syndrome -> (qubit, row) of every letter with that syndrome, highest
    # qubit first: the last letters that complete a zero-syndrome candidate
    closing: dict[int, list[tuple[int, int]]] = {}
    for q in reversed(range(n)):
        for s, row in letters[q]:
            closing.setdefault(s, []).append((q, row))
    elim = code.group.eliminator()
    for w in range(1, cap + 1):
        for syndrome, row, start in _prefixes(letters, w - 1):
            for q, last in closing.get(syndrome, ()):
                if q < start:
                    break
                if elim.solve(row ^ last) is None:
                    return w
    return None


def _prefixes(
    letters: Sequence[tuple[tuple[int, int], ...]], size: int
) -> Iterator[tuple[int, int, int]]:
    """(syndrome, row, next qubit) of every ``size``-letter operator that
    leaves at least one qubit after its last letter.  An explicit stack,
    so the depth is not bounded by the recursion limit."""
    n = len(letters)
    stack = [(0, 0, 0, size)]
    while stack:
        syndrome, row, start, left = stack.pop()
        if not left:
            yield syndrome, row, start
            continue
        for q in range(start, n - left):
            for s, r in letters[q]:
                stack.append((syndrome ^ s, row ^ r, q + 1, left - 1))


def singleton_max_distance(n: int, k: int) -> int:
    """Largest d allowed by k <= n - 2(d - 1)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (n - k) // 2 + 1


def storage_bound(boundary: int, m: int, l: int, k: int, d: int) -> int:
    """Distance ceiling for a code composed from m copies of an [[l, k, d]]
    code whose boundary holds the mk stored qubits.  A triple that breaks
    the quantum Singleton bound k <= l - 2(d - 1) is refused, and so is a
    boundary too small for k · m, whose digits the refusal prints when it
    can."""
    for name, value in (("boundary", boundary), ("m", m), ("l", l), ("k", k), ("d", d)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if k * m > boundary:
        try:
            stored = str(k * m)
        except ValueError:  # past the interpreter's int-print limit
            stored = "k · m"
        raise ValueError(f"boundary {boundary} cannot store {stored} logical qubits")
    if k > l - 2 * (d - 1):
        raise ValueError(f"no [[{l}, {k}, {d}]] code exists: k > l - 2(d - 1)")
    return (boundary + m * l - 2 * m * (d - 1) - 2 * k * m) // 2 + 1

