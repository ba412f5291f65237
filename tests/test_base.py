"""Base-layer tests: the legality referee and the concrete round protocols.

The referee's legal set is checked against `_may_decide`, an independently
written membership predicate (could a correct base protocol decide this
value?), swept exhaustively over every role/value assignment for four nodes.
The concrete engines are then bridged back to the referee: whatever they
decide must sit inside the legal set for the same proposals.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

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


def _legal_for(proposals, flavor, live):
    inst = BaseInstance()
    for p, v in proposals.items():
        inst.propose(p, FullValue(v))
    return inst.legal_decisions(flavor, live, (), VALID)


def test_floodset_agreement_and_legality_sweep():
    for vals in itertools.product([V, U], repeat=3):
        proposals = dict(enumerate(vals))
        decisions, _ = run_floodset(3, 1, proposals)
        assert set(decisions) == set(proposals)
        got = set(decisions.values())
        assert len(got) == 1
        assert got.pop() in _legal_for(proposals, BaseFlavor.BENIGN, set(decisions))


def test_floodset_message_accounting():
    decisions, messages = run_floodset(3, 1, {0: V, 1: U, 2: V})
    assert len(messages) == 12  # 2 rounds of all-to-all among 3 nodes
    assert {m[0] for m in messages} == {1, 2}
    assert all(nbytes == 1 for rnd, _, _, nbytes in messages if rnd == 1)
    assert decisions == {0: U, 1: U, 2: U}


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


def _reference_eig(n, f, proposals, byz=None, default=None):
    """run_eig as first written: whole per-node trees, every level scanned
    out of the tree on each round, and a recursive resolve; a correct node
    keeps the entries it relays in its own tree."""

    def labels_of(length):
        if length == 0:
            return [()]
        return [lb + (q,) for lb in labels_of(length - 1) for q in range(n) if q not in lb]

    byz = dict(byz or {})
    correct = sorted(p for p in proposals if p not in byz)
    if default is None:
        default = min(sorted({proposals[p] for p in correct}))
    trees = {p: {(): proposals[p]} for p in correct}
    messages = []
    for rnd in range(1, f + 2):
        level = rnd - 1
        outgoing = {}
        for src in range(n):
            if src in correct:
                outgoing[src] = {
                    lb: v for lb, v in trees[src].items() if len(lb) == level and src not in lb
                }
            elif src in byz:
                outgoing[src] = {lb: default for lb in labels_of(level) if src not in lb}
        for src in sorted(outgoing):
            if src in correct:
                for lb, v in outgoing[src].items():
                    trees[src][lb + (src,)] = v
            for dst in correct:
                if dst == src:
                    continue
                payload = outgoing[src]
                if src in byz:
                    payload = byz[src](rnd, src, dst, dict(outgoing[src]))
                if payload is None:
                    continue
                messages.append((rnd, src, dst, sum(len(v) for v in payload.values())))
                for lb, v in payload.items():
                    if len(lb) == level and src not in lb:
                        trees[dst][lb + (src,)] = v

    def resolve(tree, lb):
        if len(lb) == f + 1:
            return tree.get(lb, default)
        kids = [resolve(tree, lb + (q,)) for q in range(n) if q not in lb]
        counts = Counter(kids)
        best = min(sorted(counts), key=lambda v: (-counts[v], v))
        return best if counts[best] * 2 > len(kids) else default

    return {p: resolve(trees[p], ()) for p in correct}, messages


def _forge(rnd, src, _dst, payload):
    return {**payload, (): U, (src,) * (rnd - 1): W, (0,) * rnd: V, (1, 1)[:rnd]: U}


def test_eig_matches_the_tree_and_recursion_reference():
    # Every n <= 8 and every legal f, with silent, scrambling and forging
    # Byzantine nodes (the scramblers draw from one seeded generator per run,
    # so their draws must come in the same order; the forgers add labels of
    # the wrong length, with their own id, or with a repeated id, which
    # correct nodes then relay), absent nodes and a three-value pool.
    rng = random.Random(11)
    runs = 0
    for n in range(1, 9):
        for f in range((n - 1) // 3 + 1):
            for _ in range(20):
                ids = rng.sample(range(n), n)
                bad = ids[: rng.randint(0, f)]
                absent = ids[len(bad):][: rng.random() < 0.2]
                proposals = {
                    p: rng.choice((V, U, W)) for p in range(n) if p not in bad + absent
                }
                if not proposals:
                    continue
                kinds = [rng.choice(("silent", "scramble", "forge")) for _ in bad]
                seed = rng.getrandbits(32)
                default = rng.choice((None, V, U))

                def behaviors():
                    gen = random.Random(seed)
                    made = {
                        "silent": byz_silent,
                        "scramble": byz_scramble([V, U, W], gen),
                        "forge": _forge,
                    }
                    return {b: made[kind] for b, kind in zip(bad, kinds)}

                assert run_eig(n, f, proposals, behaviors(), default) == _reference_eig(
                    n, f, proposals, behaviors(), default
                ), (n, f, proposals, kinds)
                runs += 1
    assert runs > 250


def test_eig_matches_the_reference_on_a_record_replay_system():
    # The shape the benchmark's record-replay runs, at n=10 f=3, plus a
    # scrambling relay and an absent node: level-f entries that differ
    # between correct trees, and leaves that only a Byzantine relay sends.
    proposals = {p: (V, U)[p % 3 == 0] for p in range(10) if p not in (2, 7)}
    for absent in (5, 9):
        del proposals[absent]

        def behaviors():
            return {2: byz_silent, 7: byz_scramble([V, U], random.Random(absent))}

        got = run_eig(10, 3, proposals, behaviors())
        assert got == _reference_eig(10, 3, proposals, behaviors())
        assert len(set(got[0].values())) == 1
        proposals[absent] = V


def test_eig_folds_what_each_byzantine_leaf_relay_sent_the_node():
    # With at most f faulty nodes the last round's Byzantine entries never
    # change a decision (a correct-ending label has a correct majority of
    # children).  Two scramblers and an absent node at n=7 f=2 are one too
    # many: node 2 decides v only from what the scramblers sent it last, and
    # with the scramblers silent to node 3 in the last round, node 3's fold
    # (the one every such node shares) differs from node 1's.
    proposals = {1: V, 2: V, 3: V, 5: U}

    def behaviors(seed, deaf=()):
        def scramble(b):
            noisy = byz_scramble([V, U], random.Random(seed + b))
            return lambda rnd, src, dst, p: None if (rnd, dst) in deaf else noisy(rnd, src, dst, p)

        return {b: scramble(b) for b in (6, 4)}

    for seed, deaf, decided in (
        (23258, (), {1: U, 2: V, 3: U, 5: U}),
        (23034, ((3, 3),), {1: V, 2: U, 3: U, 5: U}),
    ):
        got = run_eig(7, 2, proposals, behaviors(seed, deaf))
        assert got == _reference_eig(7, 2, proposals, behaviors(seed, deaf))
        assert got[0] == decided


def test_eig_sizes_every_round_without_building_the_leaves():
    # All correct, 1-byte values: in round r a node relays one entry per
    # label of r - 1 other ids, (n-1)!/(n-r)! bytes, to each of the n - 1
    # others.  The last round's payload is never built, only sized.
    n, f = 13, 4
    for pattern in ((V, U), (V, V)):
        proposals = {p: pattern[p % 2] for p in range(n)}
        decisions, messages = run_eig(n, f, proposals)
        assert len(messages) == (f + 1) * n * (n - 1)
        for rnd, src, dst, nbytes in messages:
            assert src != dst
            assert nbytes == math.factorial(n - 1) // math.factorial(n - rnd), (rnd, src, dst)
        assert Counter(rnd for rnd, *_ in messages) == {r: n * (n - 1) for r in range(1, f + 2)}
        assert set(decisions) == set(range(n))
        decided = set(decisions.values())
        assert len(decided) == 1
        assert decided.pop() in _legal_for(proposals, BaseFlavor.BINARY, set(range(n)))


# The flavor each engine stands in for: what the simulator refers it against.
_ENGINE_FLAVOR = {
    "floodset": BaseFlavor.BENIGN,
    "phase_king": BaseFlavor.CLASSICAL,
    "eig": BaseFlavor.BINARY,
}


@st.composite
def _engine_runs(draw):
    """An engine, its size, and up to f faulty nodes: absent ones (never
    proposed), and silent or scrambling Byzantines, which may or may not
    have proposed themselves."""
    engine = draw(st.sampled_from(list(_ENGINE_FLAVOR)))
    least, most, divisor = {"floodset": (2, 8, 2), "phase_king": (5, 13, 4), "eig": (4, 7, 3)}[engine]
    n = draw(st.integers(least, most))
    f = draw(st.integers(0, min((n - 1) // divisor, 2 if engine == "eig" else n)))
    values = (V, U) if engine == "eig" else (V, U, W)
    proposals = dict(enumerate(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))))
    byz = {}
    pool = sorted(set(proposals.values()))
    for node in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=f)):
        kinds = ["absent"] if engine == "floodset" else ["absent", "silent", "scramble"]
        kind = draw(st.sampled_from(kinds))
        if kind == "absent" or draw(st.booleans()):
            del proposals[node]
        if kind == "silent":
            byz[node] = byz_silent
        elif kind == "scramble":
            byz[node] = byz_scramble(pool, random.Random(draw(st.integers(0, 2**32))))
    return engine, n, f, proposals, byz


@settings(max_examples=150, deadline=None)
@given(_engine_runs())
def test_concrete_engines_agree_on_a_legal_value(case):
    engine, n, f, proposals, byz = case
    if engine == "floodset":
        decisions, _ = run_floodset(n, f, proposals)
    elif engine == "phase_king":
        decisions, _ = run_phase_king(n, f, proposals, byz)
    else:
        decisions, _ = run_eig(n, f, proposals, byz)
    correct = {p for p in proposals if p not in byz}
    assert set(decisions) == correct
    decided = set(decisions.values())
    assert len(decided) == 1
    legal = _legal_for(proposals, _ENGINE_FLAVOR[engine], correct)
    assert decided.pop() in legal


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


def test_eig_nodes_keep_the_entries_they_relay():
    # Without its own relays in its tree a node folds them as the default:
    # at f = 0 the node holding u then decided v while the others decided u,
    # and a Byzantine relay could split a mixed system the same way.
    assert run_eig(4, 0, {0: V, 1: V, 2: V, 3: U})[0] == {0: V, 1: V, 2: V, 3: V}
    scramble = byz_scramble([U, V], random.Random(7))
    decisions, _ = run_eig(4, 1, {0: V, 1: V, 2: U, 3: U}, {3: scramble})
    assert len(set(decisions.values())) == 1
