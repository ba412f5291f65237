"""Core types shared by the optimizer, the base-consensus layer and the simulator.

A node's proposal is a payload plus an optional validity proof.  Payload
equality is byte equality; proofs never participate in comparisons.  The
optimizer configuration pins the failure model and the preferred value; BOUNDS
says which configurations exist and what f each one, and each base, tolerates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping

NodeId = int


# --- errors -----------------------------------------------------------------

class ConfigError(ValueError):
    """Rejected optimizer configuration."""


class ResiliencyViolation(ConfigError):
    """f is past a row of BOUNDS."""


class InvalidVariant(ConfigError):
    """A model and variant flags (proof-aware, timeout, straw man) with no row in BOUNDS."""


class DegenerateSystem(ConfigError):
    """Fewer than two nodes."""


class ProtocolError(Exception):
    """Misuse of a protocol state machine or simulator contract."""


class AlreadyStarted(ProtocolError):
    pass


class UnknownSender(ProtocolError):
    pass


class PreconditionViolation(ProtocolError):
    pass


class ConsistencyViolation(ProtocolError):
    """A fast decision contradicts the base-consensus decision."""


class DuplicatePropose(ProtocolError):
    pass


class NoLegalValue(ProtocolError):
    """External-validity base instance has no valid proposal to decide on."""


class ScenarioInvalid(ProtocolError):
    pass


class ImpersonationAttempt(ScenarioInvalid):
    """A Byzantine strategy tried to emit an envelope under a foreign sender id."""


class NonQuiescence(ProtocolError):
    """Event budget exhausted before the network went quiet."""


class MissingGolden(ProtocolError):
    pass


# --- values -----------------------------------------------------------------

@dataclass(frozen=True)
class FullValue:
    """A proposal payload with an optional proof attached.

    The proof is carried for external-validity checks but is excluded from
    equality and hashing.
    """

    val: bytes
    proof: bytes = field(default=b"", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.val, bytes) or not isinstance(self.proof, bytes):
            raise TypeError("val and proof must be bytes")
        if len(self.val) == 0:
            raise ValueError("empty value payload")


class FailureModel(enum.Enum):
    BENIGN = "benign"
    BYZANTINE_CLASSICAL = "byzantine_classical"
    BYZANTINE_EXTERNAL = "byzantine_external"


class Variant(enum.Enum):
    PROOF_OBLIVIOUS = "proof_oblivious"
    PROOF_AWARE = "proof_aware"


class MsgKind(enum.Enum):
    """Wire-level message families the simulator distinguishes."""

    PROPOSAL = "proposal"   # first-round vote, payload only
    FULL = "full"           # payload plus proof
    BASE = "base"           # base-consensus instance traffic


ValidityPredicate = Callable[[FullValue], bool]


def always_valid(_value: FullValue) -> bool:
    return True


def table_validity(table: Mapping[bytes, bool], default: bool = True) -> ValidityPredicate:
    """Validity predicate backed by a payload table with a default verdict."""

    def valid(value: FullValue) -> bool:
        return table.get(value.val, default)

    return valid


# --- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    """System-wide parameters for one optimizer instance.

    straw_man swaps the classical vote rule for a presence-based adoption
    rule; it exists so the lower-bound scenarios can run a configuration that
    is unsound by design.  sync_timeout switches the optimizer to the timeout
    variant; only whether it is set is read, since the simulator's timers
    have no duration.  Only the scenario file's codec parses, checks and
    writes back its value.  Which combinations exist, and what f each
    tolerates, is the configuration's row in BOUNDS.
    """

    n: int
    f: int
    preferred: FullValue
    model: FailureModel
    variant: Variant = Variant.PROOF_OBLIVIOUS
    sync_timeout: float | None = None
    binary_domain: bool = False
    straw_man: bool = False

    @property
    def threshold(self) -> int:
        """Votes required before the decision branch runs (n - f)."""
        return self.n - self.f


# Row name -> (role, model, k); a row holds exactly when k * f < n, so k = 0 is
# no bound at all.  An "optimizer" row names a configuration, its model plus
# every variant flag set; a "base" row names a base serving model.  A system
# tolerates f only where its optimizer row and its base's row both hold.
BOUNDS: dict[str, tuple[str, FailureModel, int]] = {
    "benign": ("optimizer", FailureModel.BENIGN, 2),
    "byzantine_classical": ("optimizer", FailureModel.BYZANTINE_CLASSICAL, 4),
    "byzantine_classical straw man": ("optimizer", FailureModel.BYZANTINE_CLASSICAL, 3),
    "byzantine_classical timeout": ("optimizer", FailureModel.BYZANTINE_CLASSICAL, 0),
    "byzantine_external": ("optimizer", FailureModel.BYZANTINE_EXTERNAL, 3),
    "byzantine_external proof-aware": ("optimizer", FailureModel.BYZANTINE_EXTERNAL, 3),
    "floodset": ("base", FailureModel.BENIGN, 1),
    "phase_king": ("base", FailureModel.BYZANTINE_CLASSICAL, 4),
    "eig": ("base", FailureModel.BYZANTINE_EXTERNAL, 3),
    # The base the paper assumes: oral-message agreement needs n > 3f (Lamport,
    # Shostak & Pease 1982).  Only the timeout variant's own row is weaker.
    "oracle": ("base", FailureModel.BYZANTINE_CLASSICAL, 3),
}


def check_bound(name: str, n: int, f: int, error: type[Exception]) -> None:
    """Raise error unless the row name of BOUNDS holds at n and f."""
    role, _, k = BOUNDS[name]
    if k * f >= n:
        raise error(f"{name} {role} needs n > {k}f, got n={n} f={f}")


def validate_config(cfg: OptimizerConfig) -> OptimizerConfig:
    """Check a configuration and return it unchanged.

    Raises DegenerateSystem, InvalidVariant or ResiliencyViolation.  Pure and
    idempotent: validating a validated config is a no-op.
    """
    if cfg.n < 2:
        raise DegenerateSystem(f"n={cfg.n}: need at least two nodes")
    if cfg.f < 0:
        raise ConfigError(f"negative fault count f={cfg.f}")
    flags = (
        ("proof-aware", cfg.variant is Variant.PROOF_AWARE),
        ("timeout", cfg.sync_timeout is not None),
        ("straw man", cfg.straw_man),
    )
    name = " ".join([cfg.model.value] + [flag for flag, on in flags if on])
    if name not in BOUNDS:
        raise InvalidVariant(f"no {name} configuration exists")
    for row in (name, "oracle"):
        if BOUNDS[row][1] is cfg.model:
            check_bound(row, cfg.n, cfg.f, ResiliencyViolation)
    return cfg
