"""Three-party quantum secure communication over W states.

A deterministic simulator and verification library: few-qubit state math,
the canonical W/GHZ states, the CH-Bell and security-event probabilities,
an individual-attack model coupling an ancilla to one transmitted qubit,
and seeded Monte Carlo engines for pair-wise key distribution, partial
secret sharing, and their synthesis.
"""

from .adversary import AttackConfig, UnitaryCouplingAttack, apply_attack, eve_ancilla_statistics
from .bell import (
    AT_LEAST_TWO,
    ALL_AXIS_SETS,
    AtLeastTwo,
    AxisSet,
    AxisSetKind,
    ChBellResult,
    QKD_AXIS_SETS,
    StrictPair,
    averaged_security_probability,
    ch_middle_term,
    prob_two_z_plus,
    prob_x_all_equal,
    prob_z_plus_x_unequal,
    security_event_probability,
)
from .protocol import (
    DEFAULT_ANNOUNCE_RATE,
    DEFAULT_EPSILON,
    Inference,
    InconsistentSharesError,
    ProtocolConfig,
    ProtocolMode,
    RunReport,
    SecurityVerdict,
    TrialRecord,
    binomial_sigma,
    decider_step,
    is_event,
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
    collapse,
    eigenvalues_hermitian,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    partial_transpose,
    plus_probability,
    reduced_density,
    three_tangle,
)
from .states import attacked_w_state, coupling_unitary, ghz_state, validate_attack_angle, w_state

__version__ = "0.1.0"
