"""Observable estimation under virtual local-map circuits.

Estimate Tr[L(rho) O] from informationally complete single-qubit measurement
records by evaluating only the causal cone of each observable term, and
variationally optimize the circuit's component maps under CPTP constraints.
"""

from .cone import (
    Component,
    MapCircuit,
    brickwork,
    circuit_from_dict,
    circuit_to_dict,
    evaluate_trace,
    evaluate_trace_backward,
    load_circuit,
    save_circuit,
    schedule,
    staircase,
)
from .densesim import (
    DensityMatrix,
    OutcomeBatch,
    apply_circuit_dense,
    apply_local_map,
    build_perturbed_state,
    build_state,
    computational_zero,
    exact_ground_energy,
    from_statevector,
    maximally_mixed,
    noisy_chain_state,
    noisy_cnot,
    outcome_distribution,
    perturbation_circuit,
    read_batch,
    sample_outcomes,
    write_batch,
)
from .errors import NumericalError, ValidationError
from .estimation import (
    Estimate,
    ProductInputData,
    circuit_energy,
    classical_input,
    collapse,
    data_from_batch,
    data_from_distribution,
    estimate,
    estimate_all,
    estimate_covariance,
    estimate_exact,
    shot_weight,
)
from .maps import (
    ChoiMatrix,
    LocalMap,
    choi_to_superop,
    cnot_map,
    compose,
    depolarizing_map,
    identity_map,
    invert_map,
    kraus_map,
    map_from_spec,
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
    superop_to_choi,
    tensor_maps,
    unitary_map,
    zreset_map,
)
from .pauli import Observable, PauliString, parse_observable, write_observable, xx_hamiltonian
from .povm import (
    DualFrame,
    SingleQubitPOVM,
    compute_duals,
    get_povm,
    make_sic_povm,
)
from .varopt import (
    SdpOptions,
    SweepOptions,
    SweepReport,
    assemble_local_objective,
    classical_ansatz,
    minimize_over_cptp,
    sweep,
    zreset_compose,
)

__version__ = "0.1.0"
