"""Simulator and verification harness for SARG04-based private database queries."""

from .quantum import (
    DensityMatrix,
    MeasurementBasis,
    PureState,
    SargSymbol,
    UsdBound,
    fidelity,
    helstrom_guess,
    measure,
    parity_bounds,
    parity_mixtures,
    sarg_state,
    state_at_angle,
    trace_distance,
    usd_bound,
)
from .protocol import (
    AnnouncedPair,
    EmptyKnownSet,
    Interpretation,
    ObliviousKey,
    ProtocolConfig,
    ProtocolError,
    RestartLimitExceeded,
    Transcript,
    alice_measure,
    bob_announce,
    bob_prepare,
    encrypt_database,
    interpret,
    query_shift,
    reduce_key,
    run_protocol,
    transmit,
)
from .adversaries import (
    USD_SUCCESS,
    AttackReport,
    Bb84MemoryAlice,
    BiasedBob,
    EntangledBob,
    UsdAlice,
    alice_joint_helstrom,
    alice_usd_interpret,
    bb84_memory_attack,
    biased_analytics,
    bob_biased_send,
    bob_entangled_round,
    cheat_detection,
    no_signaling_audit,
)
from .experiments import (
    ExperimentReport,
    KeyStats,
    key_stats,
    monte_carlo,
    multi_string_combine,
    table1,
    usd_curve,
)

__version__ = "0.1.0"
