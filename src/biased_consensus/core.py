"""Core types shared by the optimizer, the base-consensus layer and the simulator.

A node's proposal is a payload plus an optional validity proof.  Payload
equality is byte equality; proofs never participate in comparisons.  The
optimizer configuration pins the failure model, the resiliency bound and the
globally preferred value.
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
    """f is too large for the failure model's strict bound."""


class InvalidVariant(ConfigError):
    """A variant (proof-aware, timeout, straw man) outside the model it fits."""


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


class ImpersonationAttempt(ProtocolError):
    """A Byzantine strategy tried to emit an envelope under a foreign sender id."""


class ScenarioInvalid(ProtocolError):
    pass


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

    straw_man deliberately weakens the classical model to the f < n/3 bound
    with a presence-based adoption rule; it exists so the lower-bound
    scenarios can run a configuration that validate_config would otherwise
    reject.  It fits only the proof-oblivious classical model without a
    timeout.  sync_timeout switches the optimizer to the timeout variant
    (classical model, relaxed f < n/3 bound).
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


def _bound_holds(cfg: OptimizerConfig) -> bool:
    if cfg.model is FailureModel.BENIGN:
        return 2 * cfg.f < cfg.n
    if cfg.model is FailureModel.BYZANTINE_CLASSICAL:
        if cfg.straw_man or cfg.sync_timeout is not None:
            return 3 * cfg.f < cfg.n
        return 4 * cfg.f < cfg.n
    return 3 * cfg.f < cfg.n


def validate_config(cfg: OptimizerConfig) -> OptimizerConfig:
    """Check a configuration and return it unchanged.

    Raises DegenerateSystem, InvalidVariant or ResiliencyViolation.  Pure and
    idempotent: validating a validated config is a no-op.
    """
    if cfg.n < 2:
        raise DegenerateSystem(f"n={cfg.n}: need at least two nodes")
    if cfg.f < 0:
        raise ConfigError(f"negative fault count f={cfg.f}")
    if cfg.variant is Variant.PROOF_AWARE and cfg.model is not FailureModel.BYZANTINE_EXTERNAL:
        raise InvalidVariant("proof-aware variant requires the external-validity model")
    if cfg.sync_timeout is not None and cfg.model is not FailureModel.BYZANTINE_CLASSICAL:
        raise InvalidVariant("timeout variant is defined for the classical model only")
    if cfg.straw_man and not (
        cfg.model is FailureModel.BYZANTINE_CLASSICAL and cfg.sync_timeout is None
    ):
        # The presence rule replaces only the classical proof-oblivious vote rule.
        raise InvalidVariant("straw man needs the classical model and no timeout")
    if not _bound_holds(cfg):
        raise ResiliencyViolation(
            f"model {cfg.model.value} does not tolerate f={cfg.f} at n={cfg.n}"
        )
    return cfg
