"""Simulator and verification harness for SARG04-based private database queries."""

from .quantum import (
    DensityMatrix,
    PureState,
    SargSymbol,
    helstrom_guess,
    parity_bounds,
    parity_mixtures,
    sarg_state,
    state_at_angle,
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
    Bb84MemoryAlice,
    BiasedBob,
    EntangledBob,
    UsdAlice,
    alice_joint_helstrom,
    biased_analytics,
    no_signaling_audit,
)
from .experiments import (
    KeyStats,
    key_stats,
    monte_carlo,
    multi_string_combine,
    table1,
    usd_curve,
)

from .stats import ExperimentReport

__version__ = "0.1.0"
