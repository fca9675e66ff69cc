"""GF(2) linear algebra on bit-packed rows.

A row is a Python integer whose bit ``i`` is column ``i``: word-packed
storage and word-wise XOR for free.  A rank is a pivot count
(``rank_packed``, for cut ranks).  ``Eliminator`` tracks a witness per
row and serves the code that reads relations and solves: ``left_kernel``,
every stabilizer group and the distance search's membership test.  A
witness is by default the row's own bit, combined by XOR into relation
masks.  ``left_kernel`` takes its witnesses and combine step from the
caller: ``contract`` carries each row's operator product, so a kernel
relation comes back as the product it stands for.

Rows enter through one bulk write loop, ``Eliminator.add_all``, which
holds the pivots and the combine step in locals and makes no Python call
per row but the combine step; ``add`` is that loop on one row.
``_strip`` is the one read path, behind ``solve``.  Most eliminations are
small (a ring of five-qubit codes adds about 40 rows of at most 50 bits
over its contraction, residual and distance search), so the per-row call
overhead, not the XOR work, sets their cost.

Elimination pivots on the highest set bit of a row.  Which rows are
independent, and the relation that expresses each dependent row in the
earlier independent ones, depend only on the row order, so the pivot rule
changes no result, only the cost.  Tree lowering numbers the leaves last,
so a highest-bit pivot eliminates the leaves first, and the reduced rows
stay sparse: on a (2,8) repetition tree they hold 1.9 set bits on average
(7.0 with lowest-bit pivots) and their witness masks 2.9 (42).

``set_bits`` clears the lowest set bit in turn, O(width) per set bit;
the rows it walks are narrow or sparse.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator
from itertools import count


def set_bits(row: int) -> Iterator[int]:
    """Indices of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class Eliminator:
    """Incremental Gaussian elimination with witness tracking.

    Every row carries a witness, and every XOR of two rows combines their
    witnesses with ``combine``.  By default a row's witness is its own bit
    (bit j = added row j) and ``combine`` is XOR, so each pivot remembers
    which of the added rows XOR together to produce it, and dependencies
    come back as explicit relation masks.  A caller may supply its own
    starting witnesses and ``combine`` to carry something else along the
    same elimination, such as the operator product a relation stands for.
    """

    __slots__ = ("_pivots", "_n_rows", "_combine")

    def __init__(self, combine: Callable = operator.xor) -> None:
        # pivot column + 1 (the row's bit_length) -> (reduced row, witness)
        self._pivots: dict[int, tuple] = {}
        self._n_rows = 0
        self._combine = combine

    def _strip(self, row: int, witness):
        pivots = self._pivots
        combine = self._combine
        while row:
            hit = pivots.get(row.bit_length())
            if hit is None:
                break
            row ^= hit[0]
            witness = combine(witness, hit[1])
        return row, witness

    def add(self, row: int, witness=None):
        """``add_all`` on one row: None when the row extends the span, else
        the combined witness of the rows whose XOR is zero, own row
        included (by default the relation mask)."""
        return self.add_all((row,), None if witness is None else (witness,))[0]

    def add_all(self, rows: Iterable[int], witnesses: Iterable | None = None) -> list:
        """Add ``rows`` in order, each with its witness (by default its own
        bit, numbered on from the rows added before); one entry per row,
        None where the row extends the span, else its relation's witness."""
        pivots = self._pivots
        combine = self._combine
        if witnesses is None:
            witnesses = map((1).__lshift__, count(self._n_rows))
        relations = []
        for row, witness in zip(rows, witnesses):
            while row:
                hit = pivots.get(row.bit_length())
                if hit is None:
                    pivots[row.bit_length()] = (row, witness)
                    witness = None
                    break
                row ^= hit[0]
                witness = combine(witness, hit[1])
            relations.append(witness)
        self._n_rows += len(relations)
        return relations

    def solve(self, target: int) -> int | None:
        """Mask of added rows whose XOR equals ``target``, or None (default
        witnesses only)."""
        row, mask = self._strip(target, 0)
        return mask if row == 0 else None


def rank_packed(rows: Iterable[int]) -> int:
    """GF(2) rank of ``rows``: how many highest-bit pivots they leave."""
    pivots: dict[int, int] = {}  # pivot column + 1 -> reduced row
    for row in rows:
        while row and (pivot := pivots.get(row.bit_length())) is not None:
            row ^= pivot
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def left_kernel(rows: Iterable[int], witnesses: Iterable, combine: Callable) -> list:
    """A basis of {masks m : XOR of rows selected by m == 0}, each relation
    given as the ``combine`` of the ``witnesses`` (one per row) it selects;
    bit witnesses combined by XOR give the relation masks themselves."""
    relations = Eliminator(combine).add_all(rows, witnesses)
    return [r for r in relations if r is not None]
