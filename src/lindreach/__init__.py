"""Controllability analysis for finite-dimensional Markovian open quantum
systems: GKSL generators, Hoermander certification, tangent-cone lifting,
reachability descent, transport plans and dilation simulation."""

from .linalg import (
    choi,
    dag,
    hermitize,
    is_cp,
    is_tp,
    partial_trace,
    tensor,
    trace_distance,
)
from .lindblad import (
    BilinearTerm,
    JumpTerm,
    Lindbladian,
    apply,
    build,
    chain_lindbladian,
    dissipator,
    gamma_form,
    propagate,
    replacer_lindbladian,
    spectral_gap,
    stationary_states,
)
from .hormander import ResourceSet, lie_closure, orbit_span
from .tangent import (
    LiftCertificate,
    PathSample,
    in_tangent_cone,
    lift,
    lift_path,
    linear_admissible,
    second_order_witness,
    support_projection,
)
from .reach import (
    PorcupineReport,
    ReachReport,
    ResourceSetK,
    alignment,
    porcupine_check,
    reach_drive,
    replacer_overshoot,
    sparse_alignment_diagonal,
    tan_schedule,
)
from .transport import (
    TransportPlan,
    base_case_4,
    execute_plan,
    full_state_transport,
    plan_diagonal_transport,
    prepare_pure_plan,
)
from .dilation import (
    dilated_hamiltonian,
    prep_channel,
    reduced_generator,
    simulate_dissipator_via_dilation,
    unitary_mixture_step,
)

__version__ = "0.1.0"
