"""Reference copy of the kernel-product contraction in its first form.

``stabnet.contraction.contract`` carries each row's operator through the
GF(2) elimination, so every kernel vector comes back with its product
already built, and validates the residual group once.  The loops below
do the same algebra the plain way: they keep only a relation mask per
row, multiply each product out afterwards by shifting through every bit
of its mask, build a fresh operator at every multiply, key pivots by the
power of two of the lowest set bit and check every pair of candidates.
Tests require both to render byte-identical results.
"""

from __future__ import annotations

import json
from itertools import combinations

from stabnet.contraction import BellConvention, ContractionInstance
from stabnet.pauli import MinusIdentityError, PauliOperator


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Two-factor product with the phase reduced via Y = i*X*Z."""
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")
    x = p.x ^ q.x
    z = p.z ^ q.z
    phase = (
        p.phase
        + q.phase
        + (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x & z).bit_count()
    ) % 4
    return PauliOperator(p.n, x, z, phase)


def product(ops, n: int) -> PauliOperator:
    out = PauliOperator(n, 0, 0, 0)
    for op in ops:
        out = multiply(out, op)
    return out


class Eliminator:
    """Incremental elimination keyed by the lowest set bit as a power of two."""

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}
        self.n_rows = 0

    def add(self, row: int) -> int | None:
        mask = 1 << self.n_rows
        self.n_rows += 1
        while row:
            hit = self.pivots.get(row & -row)
            if hit is None:
                break
            row ^= hit[0]
            mask ^= hit[1]
        if row == 0:
            return mask
        self.pivots[row & -row] = (row, mask)
        return None


def left_kernel(rows) -> list[int]:
    elim = Eliminator()
    relations = (elim.add(row) for row in rows)
    return [r for r in relations if r is not None]


def restricted_to(op: PauliOperator, qubits) -> PauliOperator:
    x = z = 0
    for k, q in enumerate(qubits):
        x |= ((op.x >> q) & 1) << k
        z |= ((op.z >> q) & 1) << k
    return PauliOperator(len(qubits), x, z, op.phase)


def reduce_generators(ops: list[PauliOperator]) -> list[PauliOperator]:
    """Kept generators; checks every pair before any sign."""
    for op in ops:
        if op.phase not in (0, 2):
            raise ValueError(f"{op} is not Hermitian with sign +-1")
    for a, b in combinations(ops, 2):
        if ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2:  # an odd symplectic product
            raise ValueError(f"{a} and {b} anticommute")
    elim = Eliminator()
    kept = []
    for op in ops:
        relation = elim.add(op.symplectic_row())
        if relation is None:
            kept.append(op)
            continue
        top = relation.bit_length() - 1
        witness = product((ops[i] for i in range(top) if (relation >> i) & 1), op.n)
        if witness.phase != op.phase:
            raise MinusIdentityError(f"{op} and {witness} differ by -1")
    return kept


def bell_generators(i: int, j: int, n: int, convention: BellConvention):
    if convention is BellConvention.PLUS_PAIR:
        patterns = ((1 << i | 1 << j, 0), (0, 1 << i | 1 << j))
    else:
        patterns = ((1 << i, 1 << j), (1 << j, 1 << i))
    return [PauliOperator(n, x, z, 0) for x, z in patterns]


def contract_json(inst: ContractionInstance) -> str:
    """``ContractionResult.to_json()`` of ``inst``, computed the plain way."""
    n = inst.total_qubits
    paired = {q for pair in inst.pairings for q in pair}
    boundary = [q for q in range(n) if q not in paired]
    ops = [
        PauliOperator(n, g.x << off, g.z << off, g.phase)
        for group, off in zip(inst.node_states, inst.offsets)
        for g in group.generators
    ]
    for i, j in inst.pairings:
        ops.extend(bell_generators(i, j, n, inst.convention))

    contracted_mask = 0
    for q in paired:
        contracted_mask |= (1 << q) | (1 << (q + n))
    kernel = left_kernel(op.symplectic_row() & contracted_mask for op in ops)
    boundary_mask = sum(1 << q for q in boundary)
    candidates = []
    for mask in kernel:
        witness = product((ops[i] for i in range(mask.bit_length()) if (mask >> i) & 1), n)
        assert not (witness.x | witness.z) & ~boundary_mask
        candidates.append(restricted_to(witness, boundary) if boundary else witness)
    exponent = len(paired) - len(ops) + len(kernel)

    def render(status: str, residual: list[PauliOperator], exp: int) -> str:
        return json.dumps(
            {
                "status": status,
                "residual": [g.to_string() for g in residual],
                "boundary": boundary,
                "log_norm_exponent": exp,
            },
            sort_keys=True,
        )

    if not boundary:
        if any(c.phase == 2 for c in candidates):
            return render("ANNIHILATED", [], 0)
        return render("PURE", [], exponent)
    try:
        kept = reduce_generators(
            [c for c in candidates if not ((c.x | c.z) == 0 and c.phase == 0)]
        )
    except MinusIdentityError:
        return render("ANNIHILATED", [], 0)
    return render("PURE" if len(kept) == len(boundary) else "MIXED", kept, exponent)
