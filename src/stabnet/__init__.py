"""Stabilizer-state distribution over quantum networks.

Symplectic GF(2) Pauli algebra, graph states and their entanglement
ranks across A-side bit masks, Bell-pair contraction of node states,
min-cut feasibility of target states on a topology, and stabilizer-code
composition.  The tests cross-check them against a dense state-vector oracle.
"""

from .codes import (
    StabilizerCode,
    compose,
    distance,
    five_qubit_code,
    singleton_max_distance,
    storage_bound,
)
from .contraction import (
    BellConvention,
    ContractionInstance,
    ContractionResult,
    Status,
    contract,
)
from .graphstate import (
    GraphState,
    entanglement_rank,
    stabilizer_generators,
)
from .metrics import (
    NoiseSpec,
    RegularTreeSpec,
    Scheme,
    channel_count,
    latency,
    memory_qubits,
    success_probability,
)
from .network import (
    FeasibilityVerdict,
    NetworkTopology,
    feasibility,
    min_cut,
    repetition_state,
    to_contraction,
)
from .pauli import (
    MinusIdentityError,
    PauliOperator,
    StabilizerGroup,
    parse_pauli,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
