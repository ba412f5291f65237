"""Behavior of the proof-carrying wrapper node (external-validity model).

The distinguishing promise: first-round messages carry payloads only, so a
run where everyone prefers the same value moves zero proof bytes.  Proofs
travel only inside the explicit full-value exchange that a mixed first round
triggers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from biased_consensus import (
    Broadcast,
    ConsistencyViolation,
    Decide,
    DecisionPath,
    FailureModel,
    FullValue,
    MsgKind,
    OptimizerConfig,
    Phase,
    PreconditionViolation,
    ProofAwareNode,
    ProposeToBase,
    SendTo,
    Variant,
    table_validity,
)

V = b"v"
U = b"u"
PV = b"proof-of-v"
PU = b"proof-of-u"


def _node(n=4, f=1, my=V, my_proof=PV, node_id=0, valid=None):
    cfg = OptimizerConfig(
        n=n,
        f=f,
        preferred=FullValue(V, PV),
        model=FailureModel.BYZANTINE_EXTERNAL,
        variant=Variant.PROOF_AWARE,
    )
    if valid is not None:
        return ProofAwareNode(cfg, node_id, FullValue(my, my_proof), valid)
    return ProofAwareNode(cfg, node_id, FullValue(my, my_proof))


def test_start_sends_payload_without_proof():
    nd = _node()
    acts = nd.start()
    assert acts == [Broadcast(MsgKind.PROPOSAL, V)]
    assert acts[0].proof == b""


def test_unanimous_preferred_fast_decides_with_zero_proof_bytes():
    nd = _node()
    sent = nd.start()
    sent += nd.on_proposal(1, V)
    acts = nd.on_proposal(2, V)
    assert acts == [Decide(V, DecisionPath.FAST)]
    assert nd.phase is Phase.FAST_DECIDED
    # Nothing emitted so far carried a proof.
    assert all(getattr(a, "proof", b"") == b"" for a in sent)


def test_mixed_round_broadcasts_full_value():
    nd = _node()
    nd.start()
    nd.on_proposal(1, V)
    acts = nd.on_proposal(2, U)
    assert acts == [Broadcast(MsgKind.FULL, V, PV)]
    assert nd.phase is Phase.FULL_EXCHANGE
    assert nd.full_sent_to == set(range(4))
    # Own full value counts toward the wait immediately.
    assert nd.fullvals[0] == FullValue(V)


def test_exchange_completes_at_threshold_full_values():
    nd = _node(my=U, my_proof=PU)
    nd.start()
    nd.on_proposal(1, U)
    nd.on_proposal(2, V)  # mixed -> exchange, fullvals = {0: u}
    nd.on_full(2, FullValue(V, PV))
    acts = nd.on_full(1, FullValue(U, PU))
    assert nd.phase is Phase.IN_BASE
    assert acts == [ProposeToBase(FullValue(V))]
    # The adopted carrier keeps the sender's proof, not ours.
    assert acts[0].value.proof == PV


def test_exchange_falls_back_to_own_value_when_no_valid_carrier():
    valid = table_validity({V: False, U: True})
    nd = _node(my=U, my_proof=PU, valid=valid)
    nd.start()
    nd.on_proposal(1, U)
    nd.on_proposal(2, V)
    nd.on_full(2, FullValue(V, PV))
    acts = nd.on_full(1, FullValue(U, PU))
    assert acts == [ProposeToBase(FullValue(U))]
    assert acts[0].value.proof == PU


def test_reply_once_before_own_broadcast():
    nd = _node()
    nd.start()
    acts = nd.on_full(3, FullValue(U, PU))
    assert acts == [SendTo(3, MsgKind.FULL, V, PV)]
    # Second full value from the same sender: recorded value kept, no reply.
    assert nd.on_full(3, FullValue(V, PV)) == []
    assert nd.fullvals[3] == FullValue(U)


def test_no_reply_after_own_full_broadcast():
    """The broadcast already reached everyone; replying would double-send."""
    nd = _node()
    nd.start()
    nd.on_proposal(1, V)
    nd.on_proposal(2, U)
    assert nd.full_sent_to == set(range(4))
    acts = nd.on_full(3, FullValue(U, PU))
    assert not any(isinstance(a, SendTo) for a in acts)


def test_reply_stays_armed_after_fast_decision():
    nd = _node()
    nd.start()
    nd.on_proposal(1, V)
    nd.on_proposal(2, V)
    assert nd.phase is Phase.FAST_DECIDED
    acts = nd.on_full(3, FullValue(U, PU))
    assert acts == [SendTo(3, MsgKind.FULL, V, PV)]
    assert nd.phase is Phase.FAST_DECIDED


def test_early_full_values_satisfy_the_wait_at_switch_time():
    nd = _node(my=U, my_proof=PU)
    nd.start()
    nd.on_full(2, FullValue(V, PV))
    nd.on_full(3, FullValue(V, PV))
    acts = nd.on_proposal(1, U)
    acts += nd.on_proposal(2, V)
    assert nd.phase is Phase.IN_BASE
    assert ProposeToBase(FullValue(V)) in acts


def test_first_full_value_per_sender_wins():
    nd = _node()
    nd.start()
    nd.on_full(1, FullValue(U, PU))
    nd.on_full(1, FullValue(V, PV))
    assert nd.fullvals[1] == FullValue(U)


def test_base_decision_from_exchange():
    nd = _node(my=U, my_proof=PU)
    nd.start()
    nd.on_proposal(1, U)
    nd.on_proposal(2, V)
    nd.on_full(2, FullValue(V, PV))
    nd.on_full(1, FullValue(U, PU))
    acts = nd.on_base_decision(V)
    assert acts == [Decide(V, DecisionPath.BASE)]
    assert nd.phase is Phase.DONE


def test_fast_decided_node_joins_base_once_and_checks_consistency():
    nd = _node()
    nd.start()
    nd.on_proposal(1, V)
    nd.on_proposal(2, V)
    with pytest.raises(PreconditionViolation):
        nd.on_base_decision(V)
    assert nd.on_base_message_observed() == [ProposeToBase(FullValue(V))]
    assert nd.on_base_message_observed() == []
    with pytest.raises(ConsistencyViolation):
        nd.on_base_decision(U)


def test_whom_a_node_answered_before_its_broadcast_is_not_state():
    """After the broadcast every node holds this node's full value, so a
    node that answered node 3 first and one that did not end in one state."""
    answered, silent = _node(), _node()
    answered.start()
    silent.start()
    answered.on_full(3, FullValue(U, PU))   # answers node 3
    for nd in (answered, silent):
        nd.on_proposal(1, V)
        nd.on_proposal(2, U)   # mixed: broadcast the full value
    silent.on_full(3, FullValue(U, PU))    # no answer: the broadcast reached 3
    for nd in (answered, silent):
        nd.on_full(1, FullValue(V, PV))    # n - f full values: the exchange ends
        assert nd.phase is Phase.IN_BASE
    assert answered.state_key() == silent.state_key()


def test_copy_is_independent():
    nd = _node()
    nd.start()
    nd.on_full(1, FullValue(U, PU))
    dup = nd.copy()
    dup.on_proposal(1, V)
    dup.on_full(2, FullValue(U, PU))
    assert 1 not in nd.votes
    assert 2 not in nd.fullvals
    assert 2 in dup.fullvals


@given(st.permutations([V, V, U, U, U]))
def test_exchange_always_reaches_base_on_mixed_inputs(order):
    """Whatever the arrival order, a mixed round ends proposing to the base."""
    nd = _node(n=6, f=1, my=order[0])
    nd.start()
    for sender, val in enumerate(order, start=1):
        nd.on_proposal(sender, val)
    assert nd.phase in (Phase.FULL_EXCHANGE, Phase.IN_BASE)
    for sender, val in enumerate(order, start=1):
        nd.on_full(sender, FullValue(val, PV if val == V else PU))
    assert nd.phase is Phase.IN_BASE
