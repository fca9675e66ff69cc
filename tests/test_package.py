import stabnet

# The public surface of the package.  A name joins or leaves it only through
# an edit here, so every change to the export list is a deliberate one.
EXPORTS = [
    "BellConvention",
    "ContractionInstance",
    "ContractionResult",
    "FeasibilityVerdict",
    "GraphState",
    "MinusIdentityError",
    "NetworkTopology",
    "NoiseSpec",
    "PauliOperator",
    "RegularTreeSpec",
    "Scheme",
    "StabilizerCode",
    "StabilizerGroup",
    "Status",
    "channel_count",
    "codes",
    "compose",
    "contract",
    "contraction",
    "distance",
    "entanglement_rank",
    "feasibility",
    "five_qubit_code",
    "gf2",
    "graphstate",
    "latency",
    "memory_qubits",
    "metrics",
    "min_cut",
    "network",
    "parse_pauli",
    "pauli",
    "repetition_state",
    "singleton_max_distance",
    "stabilizer_generators",
    "storage_bound",
    "success_probability",
    "to_contraction",
]


def test_export_list_is_pinned():
    assert sorted(stabnet.__all__) == EXPORTS
    assert len(EXPORTS) == 38
