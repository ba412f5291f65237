"""Base-layer tests: the legality referee and the concrete round protocols.

The referee's legal set is checked against `_may_decide`, an independently
written membership predicate (could a correct base protocol decide this
value?), swept exhaustively over every role/value assignment for four nodes.
The concrete engines are then bridged back to the referee: whatever they
decide must sit inside the legal set for the same proposals.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from biased_consensus import (
    DuplicatePropose,
    FailureModel,
    FullValue,
    NoLegalValue,
    OptimizerConfig,
    PreconditionViolation,
    table_validity,
)
from biased_consensus.base import (
    BaseFlavor,
    BaseInstance,
    byz_scramble,
    byz_silent,
    flavor_for,
    run_eig,
    run_floodset,
    run_phase_king,
)

V = b"v"
U = b"u"
W = b"w"

# Validity used throughout the sweep: v carries a proof, u does not.
VALID = table_validity({U: False})


def _may_decide(flavor, val, proposals, live, crashed):
    """Independent restatement of base legality as a membership test."""
    live_vals = {proposals[p] for p in live}
    if flavor is BaseFlavor.BENIGN:
        # Crash faults only: a proposal survives its proposer's crash.
        return val in live_vals | {proposals[p] for p in crashed}
    if len(live_vals) == 1:
        # Unanimity among correct proposers wins before any filtering: a
        # correct proposer vouches for its own value.
        return val in live_vals
    if flavor is BaseFlavor.EXTERNAL:
        return val in live_vals and VALID(FullValue(val))
    return val in live_vals


# Shape of the sweep below, computed from _may_decide and frozen: how many
# (roles, values) assignments produce a legal set of each size.
FROZEN_LEGAL_SIZES = {
    ("benign", 1): 350,
    ("benign", 2): 690,
    ("classical", 1): 738,
    ("classical", 2): 302,
    ("external", 1): 1040,
    ("binary", 1): 738,
    ("binary", 2): 302,
}


def test_legal_set_matches_membership_oracle_exhaustively():
    sizes = Counter()
    no_live = 0
    for flavor in BaseFlavor:
        for roles in itertools.product("LCB", repeat=4):
            for vals in itertools.product([V, U], repeat=4):
                live = {i for i in range(4) if roles[i] == "L"}
                crashed = {i for i in range(4) if roles[i] == "C"}
                inst = BaseInstance()
                for i in range(4):
                    inst.propose(i, FullValue(vals[i]))
                if not live:
                    with pytest.raises(PreconditionViolation):
                        inst.legal_decisions(flavor, live, crashed, VALID)
                    no_live += 1
                    continue
                legal = inst.legal_decisions(flavor, live, crashed, VALID)
                expected = {
                    x
                    for x in (V, U)
                    if _may_decide(flavor, x, dict(enumerate(vals)), live, crashed)
                }
                assert set(legal) == expected
                assert legal == sorted(legal)
                sizes[(flavor.value, len(legal))] += 1
    assert dict(sizes) == FROZEN_LEGAL_SIZES
    assert no_live == 4 * 16 * 16


def test_byzantine_proposals_never_reach_the_legal_set():
    inst = BaseInstance()
    inst.propose(0, FullValue(V))
    inst.propose(2, FullValue(W))
    assert inst.legal_decisions(BaseFlavor.CLASSICAL, {0}) == [V]


def test_crashed_proposer_breaks_benign_unanimity_only():
    inst = BaseInstance()
    inst.propose(0, FullValue(V))
    inst.propose(1, FullValue(U))
    assert inst.legal_decisions(BaseFlavor.BENIGN, {0}, {1}) == [U, V]
    assert inst.legal_decisions(BaseFlavor.CLASSICAL, {0}, {1}) == [V]


def test_unanimity_beats_the_validity_filter():
    inst = BaseInstance()
    inst.propose(0, FullValue(U))
    inst.propose(1, FullValue(U))
    legal = inst.legal_decisions(BaseFlavor.EXTERNAL, {0, 1}, valid=VALID)
    assert legal == [U]


def test_no_legal_value_when_mixed_and_nothing_validates():
    inst = BaseInstance()
    inst.propose(0, FullValue(V))
    inst.propose(1, FullValue(U))
    nothing = table_validity({V: False, U: False})
    with pytest.raises(NoLegalValue):
        inst.legal_decisions(BaseFlavor.EXTERNAL, {0, 1}, valid=nothing)


def test_external_flavor_requires_a_predicate():
    inst = BaseInstance()
    inst.propose(0, FullValue(V))
    inst.propose(1, FullValue(U))
    with pytest.raises(PreconditionViolation):
        inst.legal_decisions(BaseFlavor.EXTERNAL, {0, 1})


def test_propose_and_decide_guards():
    inst = BaseInstance()
    inst.propose(0, FullValue(V))
    with pytest.raises(DuplicatePropose):
        inst.propose(0, FullValue(U))
    with pytest.raises(PreconditionViolation):
        inst.decide(U, [V])
    inst.decide(V, [V])
    with pytest.raises(DuplicatePropose):
        inst.decide(V, [V])


def test_flavor_for_mapping():
    def cfg(model, **kw):
        return OptimizerConfig(n=5, f=1, preferred=FullValue(V), model=model, **kw)

    assert flavor_for(cfg(FailureModel.BENIGN)) is BaseFlavor.BENIGN
    assert flavor_for(cfg(FailureModel.BYZANTINE_CLASSICAL)) is BaseFlavor.CLASSICAL
    assert flavor_for(cfg(FailureModel.BYZANTINE_EXTERNAL)) is BaseFlavor.EXTERNAL
    assert (
        flavor_for(cfg(FailureModel.BYZANTINE_EXTERNAL, binary_domain=True))
        is BaseFlavor.BINARY
    )


# --- concrete engines --------------------------------------------------------


def _legal_for(proposals, flavor, live, crashed=()):
    inst = BaseInstance()
    for p, v in proposals.items():
        inst.propose(p, FullValue(v))
    return inst.legal_decisions(flavor, live, crashed, VALID)


def test_floodset_agreement_and_legality_sweep():
    crash_options = [None]
    for rnd in (1, 2):
        for k in range(3):
            for recips in itertools.combinations((1, 2), k):
                crash_options.append((rnd, frozenset(recips)))
    for vals in itertools.product([V, U], repeat=3):
        proposals = dict(enumerate(vals))
        for opt in crash_options:
            crashes = {} if opt is None else {0: opt}
            decisions, _ = run_floodset(3, 1, proposals, crashes)
            assert set(decisions) == {p for p in proposals if p not in crashes}
            got = set(decisions.values())
            assert len(got) == 1
            legal = _legal_for(
                proposals, BaseFlavor.BENIGN, set(decisions), set(crashes)
            )
            assert got.pop() in legal


def test_floodset_hand_worked_crash_cases():
    proposals = {0: b"a", 1: V, 2: V}
    # Crashing before reaching anyone loses the value entirely.
    decisions, _ = run_floodset(3, 1, proposals, {0: (1, frozenset())})
    assert decisions == {1: V, 2: V}
    # Reaching a single peer is enough: the extra round floods it onward.
    decisions, _ = run_floodset(3, 1, proposals, {0: (1, frozenset({1}))})
    assert decisions == {1: b"a", 2: b"a"}


def test_floodset_message_accounting():
    decisions, messages = run_floodset(3, 1, {0: V, 1: U, 2: V})
    assert len(messages) == 12  # 2 rounds of all-to-all among 3 nodes
    assert {m[0] for m in messages} == {1, 2}
    assert all(nbytes == 1 for rnd, _, _, nbytes in messages if rnd == 1)
    assert decisions == {0: U, 1: U, 2: U}


def test_floodset_rejects_too_many_crashes():
    with pytest.raises(PreconditionViolation):
        run_floodset(3, 1, {0: V, 1: V, 2: V}, {0: (1, frozenset()), 1: (1, frozenset())})


def test_phase_king_agreement_and_legality_sweep():
    for vals in itertools.product([V, U], repeat=5):
        decisions, _ = run_phase_king(5, 1, dict(enumerate(vals)))
        assert len(set(decisions.values())) == 1
    for byz_id in (0, 4):  # node 0 is also the first phase's king
        for behavior in (byz_silent, byz_scramble([V, U], random.Random(11))):
            for vals in itertools.product([V, U], repeat=4):
                correct = [p for p in range(5) if p != byz_id]
                proposals = dict(zip(correct, vals))
                decisions, _ = run_phase_king(5, 1, proposals, {byz_id: behavior})
                assert set(decisions) == set(correct)
                got = set(decisions.values())
                assert len(got) == 1
                legal = _legal_for(proposals, BaseFlavor.CLASSICAL, set(correct))
                assert got.pop() in legal


def test_phase_king_rejects_weak_tolerance():
    with pytest.raises(PreconditionViolation):
        run_phase_king(4, 1, {0: V, 1: V, 2: V, 3: V})
    with pytest.raises(PreconditionViolation):
        run_phase_king(5, 1, {0: V, 1: V, 2: V}, {3: byz_silent, 4: byz_silent})


def test_eig_agreement_and_legality_sweep():
    for vals in itertools.product([V, U], repeat=4):
        decisions, _ = run_eig(4, 1, dict(enumerate(vals)))
        assert len(set(decisions.values())) == 1
    for behavior in (byz_silent, byz_scramble([V, U], random.Random(3))):
        for vals in itertools.product([V, U], repeat=3):
            proposals = dict(enumerate(vals))
            decisions, _ = run_eig(4, 1, proposals, {3: behavior})
            assert set(decisions) == {0, 1, 2}
            got = set(decisions.values())
            assert len(got) == 1
            legal = _legal_for(proposals, BaseFlavor.BINARY, {0, 1, 2})
            assert got.pop() in legal


def test_eig_rejects_weak_tolerance():
    with pytest.raises(PreconditionViolation):
        run_eig(3, 1, {0: V, 1: V, 2: V})


def test_engines_are_deterministic():
    args = (5, 1, {0: V, 1: U, 2: V, 3: U})
    first = run_phase_king(*args, {4: byz_scramble([V, U], random.Random(9))})
    second = run_phase_king(*args, {4: byz_scramble([V, U], random.Random(9))})
    assert first == second
    assert run_floodset(4, 1, {0: V, 1: U, 2: V, 3: U}) == run_floodset(
        4, 1, {0: V, 1: U, 2: V, 3: U}
    )
