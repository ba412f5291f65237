"""Preferred-value consensus optimizer with a deterministic adversarial
simulator.

A thin wrapper turns any consensus protocol into one that decides in a single
communication round whenever every node starts from the same designated
value, falling back to the wrapped protocol otherwise.  The package carries
the wrapper's per-model state machines, an oracle and three concrete base
protocols, a discrete-event simulator with scripted/seeded/exhaustive
scheduling, fault injection, and canonical worst-case scenarios including a
runnable impossibility construction.
"""

from .adoption import VoteSet, adoption_criteria, adoption_criteria_full
from .base import (
    BaseFlavor,
    BaseInstance,
    flavor_for,
    run_eig,
    run_floodset,
    run_phase_king,
)
from .core import (
    AlreadyStarted,
    ConfigError,
    ConsistencyViolation,
    DegenerateSystem,
    DuplicatePropose,
    FailureModel,
    FullValue,
    ImpersonationAttempt,
    InvalidVariant,
    MissingGolden,
    MsgKind,
    NodeId,
    NoLegalValue,
    NonQuiescence,
    OptimizerConfig,
    PreconditionViolation,
    ProtocolError,
    ResiliencyViolation,
    ScenarioInvalid,
    UnknownSender,
    ValidityPredicate,
    Variant,
    always_valid,
    table_validity,
    validate_config,
)
from .explore import ExplorationReport, explore
from .harness import (
    golden_set,
    load_scenario,
    parse_scenario,
    save_scenario,
    serialize_scenario,
    serialize_summary,
    summarize,
    verify_goldens,
    write_goldens,
)
from .optimizer import (
    Broadcast,
    Decide,
    DecisionPath,
    OptimizerNode,
    Phase,
    ProposeToBase,
    SendTo,
)
from .proof_aware import ProofAwareNode
from .scenarios import (
    AllDecide,
    CampaignReport,
    MixedPathsDecide,
    NamedScenario,
    ViolationExpected,
    check_expected,
    crash_from_start,
    crash_midway,
    figure1_benign,
    figure2_classical,
    figure3_external,
    lower_bound_sigma,
    random_campaign,
    run_named,
    sigma3_properly_bounded,
)
from .simnet import (
    ArbitraryScript,
    Byzantine,
    Correct,
    CrashAt,
    DecisionRecord,
    Envelope,
    Equivocate,
    Exhaustive,
    MimicHonest,
    Runner,
    Scenario,
    Scripted,
    Seeded,
    Silent,
    Trace,
    byzantine_emit,
    run,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
