"""Proof-aware optimizer variant for the external-validity model.

First-round broadcasts carry only the payload, never the proof: on the fast
path (everyone prefers the same value) no proof byte ever crosses the wire.
Only when some node sees a mixed first round does it broadcast its full value
(payload + proof) and wait for n - f full values before running the adoption
rule over them.  Any node receiving a full value answers once with its own
full value so the sender's wait can complete, unless its full value already
reached the sender; a broadcast reaches everyone.  That upper handler stays
armed even after a fast decision.

Everything else (the first round, the fast decision, joining and leaving the
base instance) is the proof-oblivious machine's, inherited unchanged.
"""

from __future__ import annotations

from .adoption import adoption_criteria_full
from .core import (
    FullValue,
    MsgKind,
    NodeId,
    OptimizerConfig,
    ValidityPredicate,
    always_valid,
)
from .optimizer import (
    Action,
    Broadcast,
    OptimizerNode,
    Phase,
    SendTo,
)


class ProofAwareNode(OptimizerNode):
    """State machine for one correct node running the proof-aware variant."""

    def __init__(
        self,
        cfg: OptimizerConfig,
        node_id: NodeId,
        my_value: FullValue,
        valid: ValidityPredicate = always_valid,
    ) -> None:
        super().__init__(cfg, node_id, my_value, valid)
        self.fullvals: dict[NodeId, FullValue] = {}
        # Whom this node's full value has reached: a broadcast adds every id.
        self.full_sent_to: set[NodeId] = set()

    # Rebound here so perfbench's tracer, which patches class bodies, times each variant.
    on_proposal = OptimizerNode.on_proposal

    def on_full(self, sender: NodeId, value: FullValue) -> list[Action]:
        """Record a full value (first per sender wins) and answer once,
        unless our full value already reached the sender (a broadcast reaches
        everyone).

        Armed in every phase, including after a fast decision: the sender is
        stuck waiting for n - f full values and needs ours.
        """
        self._check_sender(sender)
        actions: list[Action] = []
        self.fullvals.setdefault(sender, value)
        if sender not in self.full_sent_to:
            self.full_sent_to.add(sender)
            actions.append(
                SendTo(sender, MsgKind.FULL, self.my_value.val, self.my_value.proof)
            )
        actions.extend(self._maybe_finish_exchange())
        return actions

    # -- internals -----------------------------------------------------------

    def _mixed_round(self) -> list[Action]:
        """Switch to the full-value exchange instead of adopting on votes; the
        broadcast takes this node's full value to everyone."""
        self.phase = Phase.FULL_EXCHANGE
        self.fullvals.setdefault(self.node_id, self.my_value)
        self.full_sent_to = set(range(self.cfg.n))
        actions: list[Action] = [
            Broadcast(MsgKind.FULL, self.my_value.val, self.my_value.proof)
        ]
        # Full values that arrived early may already satisfy the wait.
        actions.extend(self._maybe_finish_exchange())
        return actions

    def _maybe_finish_exchange(self) -> list[Action]:
        # The exchange is open exactly while the phase is FULL_EXCHANGE.
        if self.phase is not Phase.FULL_EXCHANGE or len(self.fullvals) < self.cfg.threshold:
            return []
        adopted = adoption_criteria_full(
            self.cfg.model,
            self.fullvals,
            self.cfg.preferred,
            self.cfg.f,
            self.cfg.n,
            self.valid,
        )
        return self._enter_base(adopted if adopted is not None else self.my_value)

    def state_key(self) -> tuple:
        # Full values count in arrival order (the rule adopts the first
        # carrier) and with their proofs, until the exchange is evaluated.
        full = None
        if self.phase in (Phase.COLLECTING, Phase.FULL_EXCHANGE):
            full = tuple((s, fv.val, fv.proof) for s, fv in self.fullvals.items())
        return super().state_key() + (tuple(sorted(self.full_sent_to)), full)

    def copy(self) -> "ProofAwareNode":
        dup = super().copy()
        dup.fullvals = dict(self.fullvals)
        dup.full_sent_to = set(self.full_sent_to)
        return dup
