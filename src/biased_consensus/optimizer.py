"""Proof-oblivious optimizer state machine.

One instance per node.  The machine is event-driven and side-effect free:
every handler returns the list of actions the node wants performed (network
sends, a base-consensus proposal, or a decision).  The surrounding harness is
responsible for executing them.

Lifecycle: start() broadcasts the node's own value and records a self-vote.
When the recorded vote count first reaches n - f the decision branch runs
exactly once: unanimous preferred votes decide immediately on the fast path;
otherwise the node enters the base consensus, feeding it either the preferred
value (adoption rule holds) or its own.  A fast-decided node that later
observes base-instance traffic joins the instance once with the preferred
value, so stragglers inside the base can terminate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .adoption import VoteSet, adoption_criteria, rule_model
from .core import (
    AlreadyStarted,
    ConsistencyViolation,
    FullValue,
    MsgKind,
    NodeId,
    OptimizerConfig,
    PreconditionViolation,
    UnknownSender,
    ValidityPredicate,
    always_valid,
)


class Phase(enum.Enum):
    COLLECTING = "collecting"
    FULL_EXCHANGE = "full_exchange"   # used only by the proof-aware variant
    FAST_DECIDED = "fast_decided"
    IN_BASE = "in_base"
    DONE = "done"


class DecisionPath(enum.Enum):
    FAST = "fast"
    BASE = "base"


@dataclass(frozen=True)
class Broadcast:
    kind: MsgKind
    val: bytes
    proof: bytes = b""


@dataclass(frozen=True)
class SendTo:
    to: NodeId
    kind: MsgKind
    val: bytes
    proof: bytes = b""


@dataclass(frozen=True)
class ProposeToBase:
    value: FullValue


@dataclass(frozen=True)
class Decide:
    value: bytes
    path: DecisionPath


Action = Union[Broadcast, SendTo, ProposeToBase, Decide]


class OptimizerNode:
    """State machine for one correct node running the proof-oblivious variant.

    The proof-aware variant (proof_aware.ProofAwareNode) subclasses it and
    replaces only what follows a mixed first round.
    """

    def __init__(
        self,
        cfg: OptimizerConfig,
        node_id: NodeId,
        my_value: FullValue,
        valid: ValidityPredicate = always_valid,
    ) -> None:
        if not 0 <= node_id < cfg.n:
            raise UnknownSender(f"node id {node_id} outside [0, {cfg.n})")
        self.cfg = cfg
        self.node_id = node_id
        self.my_value = my_value
        self.valid = valid
        self.votes = VoteSet()
        self.phase = Phase.COLLECTING
        self.joined_base = False

    # -- event handlers ------------------------------------------------------

    def start(self) -> list[Action]:
        # The self-vote marks the start: no envelope reaches its own sender.
        if not self.votes.add(self.node_id, self.my_value.val):
            raise AlreadyStarted(f"node {self.node_id} started twice")
        # Payload only: no proof crosses the wire in the first round.
        return [Broadcast(MsgKind.PROPOSAL, self.my_value.val)]

    def on_proposal(self, sender: NodeId, val: bytes) -> list[Action]:
        """Record a first-round vote; run the decision branch at the threshold.

        Duplicate senders are ignored.  Votes arriving after the node left
        the collecting phase (or after the threshold already fired) are
        recorded for the trace but trigger nothing.
        """
        if not 0 <= sender < self.cfg.n:   # _check_sender, inline in the hottest handler
            self._check_sender(sender)
        if not self.votes.add(sender, val):
            return []
        if (
            self.phase is Phase.COLLECTING
            and self.cfg.sync_timeout is None
            and len(self.votes) == self.cfg.threshold
        ):
            if self.votes.all_equal(self.cfg.preferred.val):
                return self._decide_fast()
            return self._mixed_round()
        return []

    def on_base_message_observed(self) -> list[Action]:
        """Join the base instance once if this node already fast-decided."""
        if self.phase is Phase.FAST_DECIDED and not self.joined_base:
            self.joined_base = True
            return [ProposeToBase(self.cfg.preferred)]
        return []

    def on_base_decision(self, value: bytes) -> list[Action]:
        if self.phase is Phase.IN_BASE:
            self.phase = Phase.DONE
            return [Decide(value, DecisionPath.BASE)]
        if self.phase is Phase.FAST_DECIDED:
            if not self.joined_base:
                raise PreconditionViolation(
                    f"node {self.node_id}: base decision before joining"
                )
            if value != self.cfg.preferred.val:
                raise ConsistencyViolation(
                    f"node {self.node_id}: fast-decided {self.cfg.preferred.val!r} "
                    f"but base decided {value!r}"
                )
            self.phase = Phase.DONE
            return []
        raise PreconditionViolation(
            f"node {self.node_id}: unexpected base decision in phase {self.phase.value}"
        )

    def on_timeout(self) -> list[Action]:
        """Timeout-variant decision branch: all n votes equal decide fast,
        else the adoption rule runs over every vote received (the variant is
        classical-only, so f + 1 preferred votes adopt)."""
        if self.cfg.sync_timeout is None:
            raise PreconditionViolation("timeout fired outside the sync variant")
        if self.phase is not Phase.COLLECTING:
            raise PreconditionViolation(
                f"node {self.node_id}: timeout in phase {self.phase.value}"
            )
        if len(self.votes) == self.cfg.n and self.votes.all_equal(self.cfg.preferred.val):
            return self._decide_fast()
        return self._mixed_round()

    # -- internals -----------------------------------------------------------

    def _check_sender(self, sender: NodeId) -> None:
        if not 0 <= sender < self.cfg.n:
            raise UnknownSender(f"sender id {sender} outside [0, {self.cfg.n})")

    def _decide_fast(self) -> list[Action]:
        self.phase = Phase.FAST_DECIDED
        return [Decide(self.cfg.preferred.val, DecisionPath.FAST)]

    def _enter_base(self, value: FullValue) -> list[Action]:
        self.phase = Phase.IN_BASE
        return [ProposeToBase(value)]

    def _mixed_round(self) -> list[Action]:
        """No fast decision on the votes held (n - f at the threshold, or all
        received when the timer fires): enter the base instance with the
        preferred value if the adoption rule holds, else with one's own.  The
        rule itself refuses to run on fewer than n - f votes."""
        adopts = adoption_criteria(
            rule_model(self.cfg),
            self.votes,
            self.cfg.preferred,
            self.cfg.f,
            self.cfg.n,
            self.valid,
        )
        return self._enter_base(self.cfg.preferred if adopts else self.my_value)

    def state_key(self) -> tuple:
        """What can still change this machine's future: nothing reads the
        vote book once the machine stops collecting."""
        collecting = self.phase is Phase.COLLECTING
        votes = tuple(sorted(self.votes.entries.items())) if collecting else None
        return (self.phase, self.joined_base, votes)

    def copy(self) -> "OptimizerNode":
        # Explicit assignments: a generic __dict__ copy is markedly slower,
        # and the explorer copies machines hundreds of thousands of times.
        cls = type(self)
        dup = cls.__new__(cls)
        dup.cfg = self.cfg
        dup.node_id = self.node_id
        dup.my_value = self.my_value
        dup.valid = self.valid
        dup.votes = self.votes.copy()
        dup.phase = self.phase
        dup.joined_base = self.joined_base
        return dup
