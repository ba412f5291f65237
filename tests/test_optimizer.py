"""State-machine tests for the proof-oblivious wrapper node."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from biased_consensus import (
    AlreadyStarted,
    Broadcast,
    ConsistencyViolation,
    Decide,
    DecisionPath,
    FailureModel,
    FullValue,
    MsgKind,
    OptimizerConfig,
    OptimizerNode,
    Phase,
    PreconditionViolation,
    ProofAwareNode,
    ProposeToBase,
    UnknownSender,
    Variant,
    table_validity,
)

V = b"v"
U = b"u"


def _node(n, f, model, my=V, node_id=0, **kw):
    cfg = OptimizerConfig(n=n, f=f, preferred=FullValue(V), model=model, **kw)
    valid = kw.pop("_valid", None)
    if valid is not None:
        return OptimizerNode(cfg, node_id, FullValue(my), valid)
    return OptimizerNode(cfg, node_id, FullValue(my))


def test_start_broadcasts_own_value_and_self_votes():
    nd = _node(3, 1, FailureModel.BENIGN, my=U)
    acts = nd.start()
    assert acts == [Broadcast(MsgKind.PROPOSAL, U)]
    assert 0 in nd.votes and nd.votes.count_of(U) == 1
    nd.on_proposal(1, V)
    with pytest.raises(AlreadyStarted):
        nd.start()
    assert nd.votes.entries == {0: U, 1: V}   # the refused start left no trace


def test_fast_decision_on_unanimous_preferred():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    acts = nd.on_proposal(1, V)
    assert acts == [Decide(V, DecisionPath.FAST)]
    assert nd.phase is Phase.FAST_DECIDED


def test_unanimous_other_value_goes_to_base_not_fast():
    """Fast deciding is reserved for the preferred value, never the common one."""
    nd = _node(3, 1, FailureModel.BENIGN, my=U)
    nd.start()
    acts = nd.on_proposal(1, U)
    assert nd.phase is Phase.IN_BASE
    assert acts == [ProposeToBase(FullValue(U))]


def test_benign_adoption_on_single_preferred_vote():
    nd = _node(3, 1, FailureModel.BENIGN, my=U)
    nd.start()
    acts = nd.on_proposal(1, V)
    assert acts == [ProposeToBase(FullValue(V))]
    assert nd.phase is Phase.IN_BASE


def test_classical_needs_f_plus_one_preferred_votes():
    nd = _node(5, 1, FailureModel.BYZANTINE_CLASSICAL, my=U)
    nd.start()
    nd.on_proposal(1, U)
    nd.on_proposal(2, U)
    acts = nd.on_proposal(3, V)   # one v vote: below f+1
    assert acts == [ProposeToBase(FullValue(U))]

    nd2 = _node(5, 1, FailureModel.BYZANTINE_CLASSICAL, my=U)
    nd2.start()
    nd2.on_proposal(1, V)
    nd2.on_proposal(2, V)
    acts2 = nd2.on_proposal(3, U)   # two v votes: adopt
    assert acts2 == [ProposeToBase(FullValue(V))]


def test_external_adoption_gated_by_validity():
    valid = table_validity({V: False})
    cfg = OptimizerConfig(
        n=4, f=1, preferred=FullValue(V), model=FailureModel.BYZANTINE_EXTERNAL
    )
    nd = OptimizerNode(cfg, 0, FullValue(U), valid)
    nd.start()
    nd.on_proposal(1, V)
    acts = nd.on_proposal(2, U)
    assert acts == [ProposeToBase(FullValue(U))]


def test_straw_man_uses_presence_rule():
    nd = _node(
        4, 1, FailureModel.BYZANTINE_CLASSICAL, my=U, straw_man=True
    )
    nd.start()
    nd.on_proposal(1, U)
    acts = nd.on_proposal(2, V)   # single v vote suffices under the straw man
    assert acts == [ProposeToBase(FullValue(V))]


def test_threshold_fires_once_and_late_votes_are_inert():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    nd.on_proposal(1, V)
    assert nd.phase is Phase.FAST_DECIDED
    assert nd.on_proposal(2, U) == []
    assert nd.phase is Phase.FAST_DECIDED


def test_duplicate_sender_ignored():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    cfg_threshold = nd.cfg.threshold
    assert nd.on_proposal(1, U) != [] or nd.phase is not Phase.COLLECTING or True
    nd2 = _node(4, 1, FailureModel.BENIGN)
    nd2.start()
    nd2.on_proposal(1, U)
    assert nd2.on_proposal(1, V) == []
    assert nd2.votes.count_of(U) == 1
    assert len(nd2.votes) == 2 < cfg_threshold + 1


def test_unknown_sender_rejected():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    with pytest.raises(UnknownSender):
        nd.on_proposal(3, V)
    with pytest.raises(UnknownSender):
        nd.on_proposal(-1, V)


def test_join_once_after_fast_decision():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    nd.on_proposal(1, V)
    assert nd.on_base_message_observed() == [ProposeToBase(FullValue(V))]
    assert nd.joined_base
    assert nd.on_base_message_observed() == []


def test_base_decision_in_base_decides():
    nd = _node(3, 1, FailureModel.BENIGN, my=U)
    nd.start()
    nd.on_proposal(1, U)
    acts = nd.on_base_decision(U)
    assert acts == [Decide(U, DecisionPath.BASE)]
    assert nd.phase is Phase.DONE


def test_base_decision_before_join_is_a_precondition_error():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    nd.on_proposal(1, V)
    with pytest.raises(PreconditionViolation):
        nd.on_base_decision(V)


def test_base_decision_conflicting_with_fast_raises_consistency():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    nd.on_proposal(1, V)
    nd.on_base_message_observed()
    with pytest.raises(ConsistencyViolation):
        nd.on_base_decision(U)


def test_base_decision_matching_fast_is_silent():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    nd.on_proposal(1, V)
    nd.on_base_message_observed()
    assert nd.on_base_decision(V) == []
    assert nd.phase is Phase.DONE


def test_timeout_variant_decision_table():
    mk = lambda my: _node(
        4, 1, FailureModel.BYZANTINE_CLASSICAL, my=my, sync_timeout=10
    )
    # All n votes equal the preferred value: fast.
    nd = mk(V)
    nd.start()
    for s, val in ((1, V), (2, V), (3, V)):
        assert nd.on_proposal(s, val) == []   # no threshold trigger in sync mode
    assert nd.on_timeout() == [Decide(V, DecisionPath.FAST)]

    # f+1 preferred votes among n: adopt.
    nd = mk(U)
    nd.start()
    nd.on_proposal(1, V)
    nd.on_proposal(2, V)
    nd.on_proposal(3, U)
    assert nd.on_timeout() == [ProposeToBase(FullValue(V))]

    # fewer: keep own.
    nd = mk(U)
    nd.start()
    nd.on_proposal(1, V)
    nd.on_proposal(2, U)
    nd.on_proposal(3, U)
    assert nd.on_timeout() == [ProposeToBase(FullValue(U))]


def test_timeout_preconditions():
    nd = _node(3, 1, FailureModel.BENIGN)
    nd.start()
    with pytest.raises(PreconditionViolation):
        nd.on_timeout()   # async variant has no timer
    nd2 = _node(4, 1, FailureModel.BYZANTINE_CLASSICAL, sync_timeout=10)
    nd2.start()
    with pytest.raises(PreconditionViolation):
        nd2.on_timeout()   # not enough votes yet


@pytest.mark.parametrize("cls", [OptimizerNode, ProofAwareNode])
def test_copy_after_a_mixed_round_carries_every_field(cls):
    cfg = OptimizerConfig(
        4, 1, FullValue(V), FailureModel.BYZANTINE_EXTERNAL, variant=Variant.PROOF_AWARE
    )
    nd = cls(cfg, 0, FullValue(U, b"proof-u"))
    nd.start()
    if cls is ProofAwareNode:
        nd.on_full(3, FullValue(V, b"proof-v"))
    nd.on_proposal(1, V)
    nd.on_proposal(2, U)
    assert nd.phase is not Phase.COLLECTING   # the mixed round ran
    dup = nd.copy()
    assert type(dup) is cls
    assert vars(dup).keys() == vars(nd).keys()
    assert dup.votes.entries == nd.votes.entries and dup.votes is not nd.votes


def test_copy_is_independent():
    nd = _node(4, 1, FailureModel.BENIGN, my=U)
    nd.start()
    nd.on_proposal(1, V)
    dup = nd.copy()
    nd.on_proposal(2, V)
    assert len(nd.votes) == 3
    assert len(dup.votes) == 2
    assert dup.phase is Phase.COLLECTING


@given(st.permutations([V, V, U, U]))
def test_fast_exactly_when_quorum_is_all_preferred(order):
    """Over any arrival order of a fixed vote pool, fast-deciding happens iff
    the first n - f - 1 arrivals (plus self) are all the preferred value."""
    nd = _node(5, 1, FailureModel.BENIGN, my=V)
    nd.start()
    quorum = [V] + list(order)[:3]
    for s, val in enumerate(order, start=1):
        if nd.phase is not Phase.COLLECTING:
            break
        nd.on_proposal(s, val)
    want_fast = all(x == V for x in quorum)
    assert (nd.phase is Phase.FAST_DECIDED) == want_fast
