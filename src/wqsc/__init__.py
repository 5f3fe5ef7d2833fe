"""Three-party quantum secure communication over W states.

A deterministic simulator and verification library: few-qubit state math,
the canonical W/GHZ states, the CH-Bell and security-event probabilities,
an individual-attack model coupling an ancilla to one transmitted qubit,
and seeded Monte Carlo engines for pair-wise key distribution, partial
secret sharing, and their synthesis.
"""

from .adversary import UnitaryCouplingAttack, apply_attack, eve_ancilla_statistics
from .bell import (
    ALL_AXIS_SETS,
    AxisSet,
    ChBellResult,
    PQSS_AXIS_SET,
    QKD_AXIS_SETS,
    averaged_security_probability,
    ch_middle_term,
    event_masses,
    is_event,
    two_z_plus,
    x_all_equal,
)
from .protocol import (
    DEFAULT_ANNOUNCE_RATE,
    DEFAULT_EPSILON,
    InconsistentSharesError,
    ProtocolConfig,
    ProtocolMode,
    RunReport,
    SecurityVerdict,
    TrialRecord,
    binomial_sigma,
    decider_step,
    iter_trials,
    key_accounting,
    partial_inference,
    pqss_step,
    reconstruct_dealer_bit,
    run_protocol,
    run_trial,
    sample_security_frequency,
    security_verdict,
)
from .qcore import (
    Axis,
    DensityMatrix,
    InvalidStateError,
    Outcome,
    Party,
    StateVector,
    eigenvalues_hermitian,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    outcome_distributions,
    partial_transpose,
    reduced_densities,
    reduced_density,
    three_tangle,
)
from .states import (
    attacked_w_amplitudes,
    attacked_w_state,
    coupling_unitary,
    ghz_state,
    validate_attack_angle,
    w_state,
)

__version__ = "0.1.0"
