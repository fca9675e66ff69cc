"""Reference copy of the distance search in its first form.

``stabnet.codes.distance`` looks commuting up in per-qubit syndrome
tables and walks the candidates with a running syndrome.  The code below
does the same search the plain way: every candidate of each weight is
built letter by letter and tested against every generator with two
``bit_count`` calls.  Tests require both to return the same distance and
to refuse the same budgets.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct
from math import comb

from stabnet.codes import DEFAULT_ENUMERATION_BUDGET, StabilizerCode


def distance(
    code: StabilizerCode,
    weight_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int | None:
    """Minimum weight of an undetectable logical operator, or None if it
    exceeds ``weight_cap``."""
    if weight_cap < 1:
        raise ValueError("weight_cap must be >= 1")
    n = code.n
    total = sum(comb(n, w) * 3**w for w in range(1, min(weight_cap, n) + 1))
    if total > budget:
        raise ValueError(
            f"{total} candidates up to weight {weight_cap} exceed the budget {budget}"
        )
    gens = code.group.generators
    elim = code.group.eliminator()
    for w in range(1, min(weight_cap, n) + 1):
        for positions in combinations(range(n), w):
            for letters in iproduct(((1, 0), (1, 1), (0, 1)), repeat=w):  # X, Y, Z
                x = z = 0
                for q, (xb, zb) in zip(positions, letters):
                    x |= xb << q
                    z |= zb << q
                if any(
                    ((x & g.z).bit_count() + (z & g.x).bit_count()) % 2
                    for g in gens
                ):
                    continue
                if elim.solve(x | (z << n)) is None:
                    return w
    return None
