"""Reference implementations for the tests: a dense state-vector oracle,
a second, element-wise contraction path, and the group-level helpers
that the checks compare against (element enumeration, the entanglement
rank of a general stabilizer state, basis-copy augmentation).

Everything in the package that manipulates stabilizer groups is checked
against these brute-force routines on small systems.  Nothing here is
meant to be fast, and the tool itself never imports this module.

Conventions: qubit 0 is the most significant bit of the amplitude index,
matching the leftmost letter of a Pauli string, so the basis state
|b0 b1 ... b_{n-1}> sits at index int("".join(bits), 2).  State
comparisons are global-phase insensitive (overlap magnitude).  Sizes are
capped at :data:`DEFAULT_CAP` qubits; pass ``cap`` explicitly for
one-off larger checks.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from reference_contraction import restricted_to
from stabnet import gf2
from stabnet.contraction import BellConvention, bell_group
from stabnet.graphstate import GraphState
from stabnet.pauli import PauliOperator, StabilizerGroup, product

DEFAULT_CAP = 12

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Bell vectors keyed by convention value ("plus-pair" / "graph-edge").
_BELL_VECTORS = {
    "plus-pair": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "graph-edge": np.array([1, 1, 1, -1], dtype=complex) / 2,
}


class CapExceededError(ValueError):
    pass


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"{n} qubits exceeds the dense cap of {cap}")


@dataclass(frozen=True)
class DenseState:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> DenseState:
        nrm = self.norm()
        if nrm < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        return DenseState(self.n, self.amplitudes / nrm)

    def overlap_magnitude(self, other: DenseState) -> float:
        """|<self|other>| after normalizing both; 1.0 means equal up to phase."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        a = self.normalized().amplitudes
        b = other.normalized().amplitudes
        return float(abs(np.vdot(a, b)))


def basis_state(n: int, index: int) -> DenseState:
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return DenseState(n, amps)


def kron(states: Sequence[DenseState], cap: int = DEFAULT_CAP) -> DenseState:
    total = sum(s.n for s in states)
    _check_cap(total, cap)
    amps = np.ones(1, dtype=complex)
    for s in states:
        amps = np.kron(amps, s.amplitudes)
    return DenseState(total, amps)


def pauli_matrix(p: PauliOperator, cap: int = DEFAULT_CAP) -> np.ndarray:
    _check_cap(p.n, cap)
    m = np.eye(1, dtype=complex)
    for letter in p.to_string().lstrip("+-i"):  # the sign prefix is +, +i, - or -i
        m = np.kron(m, _SINGLE[letter])
    return (1j**p.phase) * m


def apply_pauli(state: DenseState, p: PauliOperator) -> DenseState:
    """P|psi> without building the matrix."""
    if p.n != state.n:
        raise ValueError("qubit counts differ")
    n = state.n
    # qubit q lives at index bit (n-1-q)
    xmask = zmask = 0
    for q in range(n):
        if (p.x >> q) & 1:
            xmask |= 1 << (n - 1 - q)
        if (p.z >> q) & 1:
            zmask |= 1 << (n - 1 - q)
    idx = np.arange(1 << n)
    zpar = _parity(idx & zmask)
    coeff = (1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)) * np.where(zpar, -1.0, 1.0)
    out = np.zeros_like(state.amplitudes)
    out[idx ^ xmask] = coeff * state.amplitudes
    return DenseState(n, out)


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(bool)


def graph_state_vector(g: GraphState, cap: int = DEFAULT_CAP) -> DenseState:
    """CZ along every edge applied to |+>^n."""
    _check_cap(g.n, cap)
    n = g.n
    amps = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=complex)
    idx = np.arange(1 << n)
    for u, v in g.edges():
        both = (1 << (n - 1 - u)) | (1 << (n - 1 - v))
        amps = np.where((idx & both) == both, -amps, amps)
    return DenseState(n, amps)


def projector_apply(group: StabilizerGroup, state: DenseState) -> DenseState:
    """Apply prod_g (I + g)/2 over the group's generators."""
    out = state
    for g in group.generators:
        out = DenseState(out.n, (out.amplitudes + apply_pauli(out, g).amplitudes) / 2)
    return out


def stabilizer_state_vector(group: StabilizerGroup, cap: int = DEFAULT_CAP) -> DenseState:
    """The unique state fixed by a full-rank group (n generators on n qubits)."""
    _check_cap(group.n, cap)
    if len(group.generators) != group.n:
        raise ValueError("group is not full rank; use code_space_basis")
    for index in range(1 << group.n):
        projected = projector_apply(group, basis_state(group.n, index))
        if projected.norm() > 1e-9:
            return projected.normalized()
    raise AssertionError("full-rank stabilizer projector annihilated every basis state")


def code_space_basis(group: StabilizerGroup, cap: int = DEFAULT_CAP) -> list[DenseState]:
    """Orthonormal basis (2**k vectors) of the joint +1 eigenspace."""
    _check_cap(group.n, cap)
    dim = 1 << group.n
    columns = []
    for index in range(dim):
        projected = projector_apply(group, basis_state(group.n, index))
        columns.append(projected.amplitudes)
    m = np.array(columns).T
    u, s, _ = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-9))
    return [DenseState(group.n, u[:, i]) for i in range(rank)]


def apply_controlled_isometry(
    control_state: DenseState,
    branches: Sequence[DenseState],
    control_qubits: Sequence[int] | None = None,
    post_select: bool = True,
    cap: int = DEFAULT_CAP,
) -> DenseState:
    """Route each control basis value to its branch state on fresh qubits.

    The branch qubits are appended after the control state's qubits.  With
    ``post_select`` the control qubits are measured in the Fourier (|+->)
    basis, the all-|+> outcome is kept and those qubits are removed;
    otherwise the pre-measurement state is returned.
    """
    r = (len(branches) - 1).bit_length()
    if len(branches) != 1 << r:
        raise ValueError("branch count must be a power of two")
    if control_qubits is None:
        control_qubits = range(control_state.n - r, control_state.n)
    control_qubits = list(control_qubits)
    if len(control_qubits) != r:
        raise ValueError(f"need {r} control qubits for {len(branches)} branches")
    nb = branches[0].n
    if any(b.n != nb for b in branches):
        raise ValueError("branch states differ in qubit count")
    total = control_state.n + nb
    _check_cap(total, cap)

    nc = control_state.n
    amps = np.zeros(1 << total, dtype=complex)
    idx = np.arange(1 << nc)
    for value, branch in enumerate(branches):
        sel = np.ones(1 << nc, dtype=bool)
        for k, q in enumerate(control_qubits):
            want = (value >> (r - 1 - k)) & 1
            sel &= ((idx >> (nc - 1 - q)) & 1) == want
        sub = np.where(sel, control_state.amplitudes, 0)
        amps += np.kron(sub, branch.amplitudes)
    state = DenseState(total, amps)
    if not post_select:
        return state

    # project every control qubit onto <+| and drop it
    tensor = state.amplitudes.reshape([2] * total)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    remaining = list(range(total))
    for q in sorted(control_qubits, reverse=True):
        axis = remaining.index(q)
        tensor = np.tensordot(tensor, plus, axes=([axis], [0]))
        remaining.remove(q)
    out = DenseState(len(remaining), tensor.reshape(-1))
    if out.norm() < 1e-12:
        raise ValueError("post-selection on the Fourier outcome has zero norm")
    return out.normalized()


def dense_contract(
    states: Sequence[DenseState] | DenseState,
    pairings: Sequence[tuple[int, int]],
    convention: str = "plus-pair",
    cap: int = DEFAULT_CAP,
) -> DenseState:
    """Project each paired qubit couple onto the Bell vector and drop it.

    Input states occupy consecutive global qubit blocks in list order.
    The result is intentionally left unnormalized (it may be zero).
    """
    if isinstance(states, DenseState):
        combined = states
    else:
        combined = kron(states, cap=cap)
    _check_cap(combined.n, cap)
    bell = np.conj(_bell_vector(convention)).reshape(2, 2)
    tensor = combined.amplitudes.reshape([2] * combined.n)
    remaining = list(range(combined.n))
    seen: set[int] = set()
    for i, j in pairings:
        if i == j or i in seen or j in seen:
            raise ValueError("pairings must be disjoint")
        seen.update((i, j))
        ai, aj = remaining.index(i), remaining.index(j)
        tensor = np.tensordot(tensor, bell, axes=([ai, aj], [0, 1]))
        remaining.remove(i)
        remaining.remove(j)
    return DenseState(len(remaining), tensor.reshape(-1))


def _bell_vector(convention) -> np.ndarray:
    key = getattr(convention, "value", convention)
    try:
        return _BELL_VECTORS[key]
    except KeyError:
        raise ValueError(f"unknown Bell convention {convention!r}") from None


def bell_vector(convention) -> DenseState:
    return DenseState(2, _bell_vector(convention))


def reduced_rank(state: DenseState, subset: Sequence[int], tol: float = 1e-9) -> int:
    """Rank of the reduced density operator on ``subset``.

    Counted as singular values of the bipartition matrix above ``tol``
    (the state is normalized first).
    """
    subset = sorted(subset)
    if not set(subset) <= set(range(state.n)):
        raise ValueError("subset out of range")
    rest = [q for q in range(state.n) if q not in subset]
    tensor = state.normalized().amplitudes.reshape([2] * state.n)
    m = tensor.transpose(subset + rest).reshape(1 << len(subset), -1)
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tol))


def contract_single_element(
    s: PauliOperator,
    pairings: Sequence[tuple[int, int]],
    convention: BellConvention | str = BellConvention.PLUS_PAIR,
) -> PauliOperator | None:
    """Boundary restriction of one stabilizer element, if it survives.

    ``s`` survives when its letters on every contracted pair match a Bell
    group element (pattern-wise); the accumulated sign is exact.  Returns
    None as soon as one pair mismatches.
    """
    convention = BellConvention(convention)
    elements = {(e.x, e.z): e for e in group_elements(bell_group(convention))}
    n = s.n
    acc = s
    paired: list[int] = []
    for i, j in pairings:
        pattern = (
            ((s.x >> i) & 1) | (((s.x >> j) & 1) << 1),
            ((s.z >> i) & 1) | (((s.z >> j) & 1) << 1),
        )
        match = elements.get(pattern)
        if match is None:
            return None
        acc = product((acc, _embed_pair(match, i, j, n)), n)
        paired.extend((i, j))
    boundary = [q for q in range(n) if q not in paired]
    if acc.phase not in (0, 2):
        raise AssertionError("surviving element has a non-Hermitian phase")
    if not boundary:
        return acc
    return restricted_to(acc, boundary)


def _embed_pair(op2: PauliOperator, i: int, j: int, n: int) -> PauliOperator:
    """Embed a 2-qubit operator with its qubits 0, 1 mapped to i, j."""
    x = (((op2.x >> 0) & 1) << i) | (((op2.x >> 1) & 1) << j)
    z = (((op2.z >> 0) & 1) << i) | (((op2.z >> 1) & 1) << j)
    return PauliOperator(n, x, z, op2.phase)


def group_elements(group: StabilizerGroup) -> Iterator[PauliOperator]:
    """All 2**len(generators) group elements with their signs (small groups only)."""
    if len(group.generators) > 16:
        raise ValueError("group too large to enumerate")
    for mask in range(1 << len(group.generators)):
        yield product((group.generators[i] for i in gf2.set_bits(mask)), group.n)


def group_entanglement_rank(group: StabilizerGroup, subset: Sequence[int]) -> int:
    """log2 rank of the reduced density operator of a full-rank group on ``subset``.

    |A| minus the number of independent group elements supported entirely
    inside A: those are the kernel relations of the generators restricted
    to the complement of A.
    """
    inside = set(subset)
    if not inside <= set(range(group.n)):
        raise ValueError("subset out of range")
    outside = sum(1 << q for q in range(group.n) if q not in inside)
    restricted = [(g.x & outside) | ((g.z & outside) << group.n) for g in group.generators]
    return len(inside) - len(gf2.left_kernel(restricted, [1 << i for i in range(len(restricted))], operator.xor))


def augment(group: StabilizerGroup, a: int) -> StabilizerGroup:
    """Basis-copy qubit ``a`` onto a fresh qubit appended at index n.

    Stabilizer-level effect of copying in the computational basis: every
    generator with X support on ``a`` gains X on the copy, and Z_a Z_copy
    joins the group.  This models a relay's controlled isometry.
    """
    if not 0 <= a < group.n:
        raise ValueError(f"vertex {a} out of range")
    n = group.n + 1
    gens = [
        PauliOperator(n, g.x | (((g.x >> a) & 1) << group.n), g.z, g.phase)
        for g in group.generators
    ]
    gens.append(PauliOperator(n, 0, (1 << a) | (1 << group.n), 0))
    return StabilizerGroup(n, tuple(gens))
