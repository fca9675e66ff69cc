"""Signed Pauli operators and stabilizer groups in symplectic GF(2) form.

Representation
--------------
An n-qubit Pauli operator is two bit-packed integers ``x`` and ``z``
(bit q = qubit q, qubit 0 is the leftmost letter of a string such as
"XZZXI") plus a phase exponent in {0,1,2,3} encoding a global factor
``i**phase``.  The letters are read off per qubit as

    (x_q, z_q): (0,0) -> I, (1,0) -> X, (0,1) -> Z, (1,1) -> Y,

with Y the standard Pauli matrix.  Only this module turns letters into
bits: ``_BITS`` is the letter table, :func:`symplectic` the row layout,
and :func:`letter_rows` the distance search's per-qubit X, Y and Z rows
and syndromes.  The single sign convention used project-wide is ``Y = i
* X * Z`` (equivalently ``X * Z = -i * Y``).  A product is taken in
X-before-Z form (:func:`xz_form`, :func:`from_xz_form`), and
:func:`times`, one step of it, is the one place that applies the
convention: :func:`product` folds it over a list, and ``contract``
passes it to the elimination as the combine step of its witnesses.
Valid stabilizer elements always carry phase 0 (for +1) or 2 (for -1);
odd phases only occur in intermediate products.  ``n`` may be 0: a
zero-qubit operator is the scalar ``i**phase``, and ``StabilizerGroup(0,
())`` is the residual of a fully contracted instance.

Stabilizer groups
-----------------
The :class:`StabilizerGroup` constructor is the one reduction: a single
elimination keeps the first independent occurrence of each direction, so
``StabilizerGroup(2, (+XX, +ZZ, -YY))`` keeps ``(+XX, +ZZ)``.  It raises
on an odd phase or another qubit count, then on an anticommuting pair,
then on a dependent sign that puts -I in the group.  The kept generators
commute pair by pair when the group is small or dense.  A large sparse
group (a contraction residual has thousands of generators of a few
letters each) instead builds, per qubit, the mask of generators with X
there and the mask with Z there (:func:`support_masks`); a generator's
anticommutation mask is then one XOR per letter.  The choice compares the
pair count with the letter count, and both paths name the same first
pair (i < j).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import gf2

_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# _BITS read backwards, by x + 2z: digit bytes 0x30 + x and 0x30 + z give
# (0x30 + x) + 2 * (0x30 + z) = 0x90 + x + 2z
_LETTERS = bytes.maketrans(bytes(0x90 + x + 2 * z for x, z in _BITS.values()), "".join(_BITS).encode())
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class MinusIdentityError(ValueError):
    """The generated group contains -I (downstream: an annihilated projection)."""


def require_int(value: object, field: str) -> int:
    """``value`` if it is an integer; JSON floats and booleans are refused,
    never rounded.  Every numeric input field goes through this check."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def require_type(value: object, kind: type | tuple[type, ...], field: str, what: str):
    """``value`` if it is a ``kind``: a string is never read as a list."""
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be {what}, got {value!r}")
    return value


def require_key(data: dict, key: str, parent: str = ""):
    """``data[key]``; a missing key names its entry (``nodes[0].role is
    missing``), never a bare ``KeyError``."""
    if key not in data:
        raise ValueError(f"{parent}.{key} is missing" if parent else f"{key} is missing")
    return data[key]


@dataclass(frozen=True)
class PauliOperator:
    """A signed Pauli string on ``n`` qubits."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be >= 0, got {self.n}")
        if self.x < 0 or self.z < 0 or (self.x | self.z).bit_length() > self.n:
            raise ValueError("x/z bits extend beyond the qubit count")
        if not 0 <= self.phase <= 3:
            raise ValueError(f"phase must be in 0..3, got {self.phase}")

    def negated(self) -> PauliOperator:
        return PauliOperator(self.n, self.x, self.z, (self.phase + 2) % 4)

    def symplectic_row(self) -> int:
        return symplectic(self.x, self.z, self.n)

    def to_string(self) -> str:
        # bit n pads each binary string to n digits; reversed and without
        # its "0b1" head, character q is qubit q.  Read as big-endian
        # integers, the digit bytes b"0"/b"1" add bytewise as x + 2z with
        # no carry, and one translate turns each sum into its letter.
        xs = int.from_bytes(bin(self.x | 1 << self.n)[:2:-1].encode(), "big")
        zs = int.from_bytes(bin(self.z | 1 << self.n)[:2:-1].encode(), "big")
        return _PHASE_PREFIX[self.phase] + (xs + 2 * zs).to_bytes(self.n, "big").translate(_LETTERS).decode()

    def __str__(self) -> str:
        return self.to_string()


def parse_pauli(text: str, n: int | None = None) -> PauliOperator:
    """Parse a sign-prefixed letter string such as "-YY" or "XZZXI"."""
    phase = 0
    start = 0
    if text.startswith(("+", "-")):
        phase = 0 if text[0] == "+" else 2
        start = 1
    x = z = 0
    count = 0
    for i in range(start, len(text)):
        bits = _BITS.get(text[i])
        if bits is None:
            raise ValueError(f"invalid character {text[i]!r} at position {i}")
        x |= bits[0] << count
        z |= bits[1] << count
        count += 1
    if count == 0:
        raise ValueError(f"empty Pauli string at position {start}")
    if n is not None and count != n:
        raise ValueError(f"expected {n} letters, found {count} at position {len(text) - 1}")
    return PauliOperator(count, x, z, phase)


def symplectic(x: int, z: int, n: int) -> int:
    """Packed [x|z] row of the x and z masks of n qubits: columns 0..n-1 are
    x bits, n..2n-1 are z bits.  The one place that fixes the row layout."""
    return x | z << n


def letter_rows(gens: Sequence[PauliOperator], n: int) -> list[tuple[tuple[int, int], ...]]:
    """Per qubit q, the (syndrome, symplectic row) of X, Y and Z on q, in
    that order.  Bit j of a syndrome says the letter anticommutes with
    ``gens[j]``, read straight off the support masks: X on q anticommutes
    with the generators with a Z part on q, Z with those with an X part,
    and Y with those with exactly one of the two."""
    has_x, has_z = support_masks(gens, n)
    # each letter's row on qubit 0, built once; on qubit q its row is row << q
    rx, ry, rz = (symplectic(x, z, n) for x, z in map(_BITS.get, "XYZ"))
    return [((hz, rx << q), (hx ^ hz, ry << q), (hx, rz << q)) for q, (hx, hz) in enumerate(zip(has_x, has_z))]


def xz_form(op: PauliOperator) -> tuple[int, int, int, int]:
    """``op`` in X-before-Z form ``(x, z, c, tag)``: the operator ``i**c *
    X**x * Z**z``, so c = phase + |x & z| by Y = i*X*Z.  The tag, 0 here,
    is a mask that rides along, combined by XOR (``contract`` carries a
    row's Bell letters there)."""
    return op.x, op.z, op.phase + (op.x & op.z).bit_count(), 0


def times(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """``a * b`` of two operators in X-before-Z form, tags XORed: moving
    b's X past a's Z costs (-1)**|z & x'|.  The one place that applies the
    sign convention to a product."""
    ax, az, ac, at = a
    bx, bz, bc, bt = b
    return ax ^ bx, az ^ bz, ac + bc + 2 * (az & bx).bit_count(), at ^ bt


def from_xz_form(a: tuple[int, int, int, int], n: int) -> PauliOperator:
    """The operator on ``n`` qubits of an X-before-Z form, Y letters restored."""
    x, z, c, _ = a
    return PauliOperator(n, x, z, (c - (x & z).bit_count()) % 4)


def product(ops: Iterable[PauliOperator], n: int) -> PauliOperator:
    """Ordered product of ``ops``, all on ``n`` qubits, with its exact phase."""
    acc = (0, 0, 0, 0)
    for op in ops:
        if op.n != n:
            raise ValueError(f"qubit counts differ: {op.n} vs {n}")
        acc = times(acc, xz_form(op))
    return from_xz_form(acc, n)


def support_masks(ops: Sequence[PauliOperator], n: int) -> tuple[list[int], list[int]]:
    """Per qubit q, the mask of ``ops`` with an X part on q and the mask
    of ``ops`` with a Z part on q (bit i stands for ``ops[i]``)."""
    xs, zs = [0] * n, [0] * n
    for i, op in enumerate(ops):
        bit = 1 << i
        for q in gf2.set_bits(op.x):
            xs[q] |= bit
        for q in gf2.set_bits(op.z):
            zs[q] |= bit
    return xs, zs


# The pair loop costs about 170 ns a pair.  Support masks cost about 550 ns
# per generator and per set bit of x and z, to build them and to read them
# (CPython 3.11, 2-core x86 VM), about 4 pairs' worth.  The 4096-generator
# GHZ residual of a (2,12) tree checks in 0.023 s with masks and 1.56 s with
# pairs; a dense group (half its letters set) checks 3x to 6x slower with
# masks at every size from 4 to 1024 generators.
_PAIRS_PER_LETTER = 4


def _check_commuting(gens: Sequence[PauliOperator], n: int) -> None:
    """Raise on the first anticommuting pair (i < j) in pair-loop order."""
    g = len(gens)
    pairs = g * (g - 1) // 2
    if pairs <= _PAIRS_PER_LETTER * (g + sum(a.x.bit_count() + a.z.bit_count() for a in gens)):
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1:
                    raise ValueError(f"{a} and {b} anticommute")
        return
    xs, zs = support_masks(gens, n)
    for i, a in enumerate(gens):
        # bit j: a's X meets gens[j]'s Z and a's Z meets gens[j]'s X an odd
        # number of times, i.e. a and gens[j] anticommute
        anti = 0
        for q in gf2.set_bits(a.x):
            anti ^= zs[q]
        for q in gf2.set_bits(a.z):
            anti ^= xs[q]
        later = anti >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            raise ValueError(f"{a} and {gens[j]} anticommute")


@dataclass(frozen=True)
class StabilizerGroup:
    """The group its generators generate, kept as the first independent
    occurrence of each direction: under full rank (a code space) or empty
    at times, never holding -I.  Raises ``ValueError`` on a negative qubit
    count, an odd phase or another qubit count, then on the first
    anticommuting pair (i < j), then :class:`MinusIdentityError`."""

    n: int
    generators: tuple[PauliOperator, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be >= 0, got {self.n}")
        ops = tuple(self.generators)
        for op in ops:
            if op.phase not in (0, 2):
                raise ValueError(f"{op} is not Hermitian with sign +-1")
            if op.n != self.n:
                raise ValueError(f"qubit counts differ: {op.n} vs {self.n}")
        elim = gf2.Eliminator()
        relations = [elim.add(op.symplectic_row()) for op in ops]
        kept = tuple(op for op, r in zip(ops, relations) if r is None)
        # A dependent op is a product of earlier kept ones, so an anticommuting
        # pair holding it follows an earlier pair of kept ones: checking the
        # kept ones names the all-pairs loop's first pair, before any sign.
        _check_commuting(kept, self.n)
        for k, relation in enumerate(relations):
            if relation is not None:  # ops[k] is spanned by earlier keepers
                witness = product((ops[i] for i in gf2.set_bits(relation ^ 1 << k)), self.n)
                if witness.phase != ops[k].phase:
                    raise MinusIdentityError(f"{ops[k]} and the spanned product {witness} differ by -1")
        object.__setattr__(self, "generators", kept)

    @classmethod
    def from_strings(
        cls, texts: Sequence[str], n: int | None = None, field: str = "generators"
    ) -> StabilizerGroup:
        """Errors name ``field``, and ``field[i]`` for a bad string ``i``."""
        for i, text in enumerate(require_type(texts, (list, tuple), field, "a list of Pauli strings")):
            require_type(text, str, f"{field}[{i}]", "a Pauli string")
        ops: list[PauliOperator] = []
        try:
            for text in texts:
                ops.append(parse_pauli(text, n))
        except ValueError as exc:
            raise ValueError(f"{field}[{len(ops)}]: {exc}") from exc
        try:
            if n is None and not ops:
                raise ValueError("empty generator list needs an explicit qubit count")
            group = cls(ops[0].n if n is None else n, tuple(ops))
            if len(group) != len(ops):
                raise ValueError("generators are GF(2)-dependent")
            return group
        except ValueError as exc:
            raise type(exc)(f"{field}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.generators)

    def to_strings(self) -> list[str]:
        return [g.to_string() for g in self.generators]

    def eliminator(self) -> gf2.Eliminator:
        """Elimination state over the generators' symplectic rows."""
        elim = gf2.Eliminator()
        for g in self.generators:
            elim.add(g.symplectic_row())
        return elim

