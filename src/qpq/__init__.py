"""Simulator and verification harness for SARG04-based private database queries."""

from .quantum import (
    DensityMatrix,
    PureState,
    SargSymbol,
    UsdBound,
    fidelity,
    helstrom_guess,
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
    encrypt_database,
    interpret,
    query_shift,
    run_protocol,
)
from .adversaries import (
    USD_SUCCESS,
    AttackReport,
    Bb84MemoryAlice,
    BiasedBob,
    EntangledBob,
    UsdAlice,
    alice_joint_helstrom,
    biased_analytics,
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
