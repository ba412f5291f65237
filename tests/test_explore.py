"""Exploration engine: pruning soundness, witnesses, budgets, determinism.

The pruner's ground truth is the unpruned walk.  One mixed-input system is
checked for full outcome-set equality (the unpruned side is the slow part of
this file); larger systems get the one-directional check that still matters —
every outcome an unpruned walk can find must appear in the pruned set.
Generated systems of up to four nodes get whichever of the two checks their
capped unpruned walk allows.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from hypothesis import given, settings, strategies as st

from biased_consensus import (
    ArbitraryScript,
    Byzantine,
    Correct,
    CrashAt,
    Equivocate,
    Exhaustive,
    FailureModel,
    FullValue,
    MimicHonest,
    OptimizerConfig,
    Scenario,
    Scripted,
    Seeded,
    Silent,
    Variant,
    explore,
    lower_bound_sigma,
    run,
    sigma3_properly_bounded,
)
from biased_consensus.core import MsgKind
from biased_consensus.explore import _deliver_noop, _independent
from biased_consensus.optimizer import Phase
from biased_consensus.simnet import Runner

V = b"v"
U = b"u"


def _scenario(n, f, model, values, faults):
    cfg = OptimizerConfig(n=n, f=f, preferred=FullValue(V), model=model)
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(x) for x in values),
        faults=faults,
        schedule=Exhaustive(),
    )


def _benign_mixed():
    return _scenario(3, 1, FailureModel.BENIGN, (V, V, U), (Correct(),) * 3)


def test_pruned_equals_unpruned_on_mixed_inputs():
    pruned = explore(_benign_mixed())
    ground = explore(
        _benign_mixed(), prune=False, max_leaves=300_000, max_events=1_000_000
    )
    assert not pruned.budget_exceeded and not ground.budget_exceeded
    assert set(pruned.outcomes) == set(ground.outcomes)
    assert pruned.violating_leaves == ground.violating_leaves == 0
    assert pruned.leaves < ground.leaves


def test_pruned_equals_unpruned_with_a_dead_node():
    sc = lambda: _scenario(
        3, 1, FailureModel.BENIGN, (V, U, V), (CrashAt(0), Correct(), Correct())
    )
    pruned = explore(sc())
    ground = explore(sc(), prune=False)
    assert set(pruned.outcomes) == set(ground.outcomes)
    assert pruned.violating_leaves == ground.violating_leaves == 0


def test_unpruned_sample_is_contained_in_pruned_outcomes():
    cases = [
        lambda: _scenario(
            3, 1, FailureModel.BENIGN, (V, U, V), (CrashAt(1), Correct(), Correct())
        ),
        lambda: _scenario(
            4,
            1,
            FailureModel.BYZANTINE_EXTERNAL,
            (V, V, V, V),
            (Correct(),) * 3 + (Byzantine(Equivocate(V, U, frozenset({0}))),),
        ),
    ]
    for mk in cases:
        pruned = explore(mk())
        assert not pruned.budget_exceeded
        sample = explore(mk(), prune=False, max_leaves=20_000)
        assert set(sample.outcomes) <= set(pruned.outcomes)


def test_seeded_runs_land_inside_the_explored_outcome_set():
    sc = _scenario(3, 1, FailureModel.BENIGN, (V, U, V), (Correct(),) * 3)
    outcomes = set(explore(sc).outcomes)
    for seed in range(20):
        trace = run(
            dataclasses.replace(sc, schedule=Seeded(seed)), record_trace=False
        )
        sig = tuple(
            (node, trace.decisions[node].value.hex(), trace.decisions[node].path.value)
            for node in range(3)
        )
        kinds = tuple(sorted({k for k, _ in trace.violations}))
        assert (sig, kinds) in outcomes


def test_strawman_sigma_violation_is_reachable_and_replayable():
    staged = lower_bound_sigma(1)[2]
    report = explore(dataclasses.replace(staged.scenario, schedule=Exhaustive()))
    assert not report.budget_exceeded
    assert report.violation_count > 0
    assert report.violation_kinds["classical-validity"] > 0
    assert report.witness is not None
    replay = run(
        dataclasses.replace(staged.scenario, schedule=Scripted(tuple(report.witness)))
    )
    assert any(kind == "classical-validity" for kind, _ in replay.violations)


def test_properly_bounded_system_survives_the_same_adversary():
    report = explore(sigma3_properly_bounded(1))
    assert not report.budget_exceeded
    assert report.leaves > 0
    assert report.violation_count == 0
    for (decisions, kinds), _count in report.outcomes.items():
        assert kinds == ()
        assert all(value == U.hex() for _node, value, _path in decisions)


def test_outcome_counter_accounts_for_every_leaf():
    report = explore(_benign_mixed())
    assert sum(report.outcomes.values()) == report.leaves


def test_budget_caps_truncate_and_flag():
    capped = explore(_benign_mixed(), max_leaves=1)
    assert capped.budget_exceeded and capped.leaves == 1
    starved = explore(_benign_mixed(), max_events=1)
    assert starved.budget_exceeded


def test_exploration_is_deterministic():
    first = explore(_benign_mixed())
    second = explore(_benign_mixed())
    assert first.outcomes == second.outcomes
    assert (first.leaves, first.events) == (second.leaves, second.events)
    assert first.witness == second.witness


def test_the_cache_reports_its_states_and_hits():
    cached = explore(_benign_mixed())
    assert cached.states > 0 and cached.cache_hits > 0
    # Every leaf is a distinct visited state.
    assert cached.leaves <= cached.states
    plain = explore(_benign_mixed(), prune=False, max_events=1_000)
    assert (plain.states, plain.cache_hits) == (0, 0)


def test_the_search_counts_are_pinned():
    """(events, leaves, states, cache hits) of four fixed searches, so any
    change to what the state key tells apart shows up here."""
    proofs = {V: b"pv", U: b"pu"}
    proof_aware = Scenario(
        cfg=OptimizerConfig(
            4, 1, FullValue(V, proofs[V]), FailureModel.BYZANTINE_EXTERNAL,
            variant=Variant.PROOF_AWARE,
        ),
        initial_values=tuple(FullValue(x, proofs[x]) for x in (V, V, U, U)),
        faults=(Correct(),) * 3 + (Byzantine(Silent()),),
        schedule=Exhaustive(),
    )
    searches = {
        "benign n5 mixed": _scenario(
            5, 2, FailureModel.BENIGN, (V, V, V, U, U), (Correct(),) * 5
        ),
        "sigma3 properly bounded": sigma3_properly_bounded(1),
        "proof-aware n4 silent": proof_aware,
        "benign n4 crash": _scenario(
            4, 1, FailureModel.BENIGN, (V, V, U, U), (Correct(),) * 3 + (CrashAt(1),)
        ),
    }
    counts = {}
    for name, sc in searches.items():
        r = explore(sc)
        assert not r.budget_exceeded and r.violation_count == 0
        counts[name] = (r.events, r.leaves, r.states, r.cache_hits)
    assert counts == {
        "benign n5 mixed": (348, 8, 281, 68),
        "sigma3 properly bounded": (95, 1, 81, 15),
        "proof-aware n4 silent": (639, 1, 387, 231),
        "benign n4 crash": (277, 6, 229, 45),
    }


def test_the_reduction_reaches_a_benign_crash_search():
    # Without a reduction that survives a pending crash this search takes
    # about 107k events; every outcome is known in closed form.
    sc = _scenario(
        5, 2, FailureModel.BENIGN, (V, V, V, U, U), (Correct(),) * 4 + (CrashAt(1),)
    )
    report = explore(sc, max_events=20_000)
    assert not report.budget_exceeded
    expected = {
        (tuple((node, V.hex(), p) for node, p in enumerate(paths + ("base",))), ())
        for paths in itertools.product(("fast", "base"), repeat=3)
    }
    assert set(report.outcomes) == expected


def test_the_reduction_orders_a_crash_after_the_base_decision():
    # The preferred value is invalid, so the base decides u.  In one outcome
    # node 1 fast-decides v, learns the base's u (a consistency violation)
    # and only then crashes: reaching it needs the crash of a node that has
    # proposed to bring in the base pick.
    sc = dataclasses.replace(
        _scenario(
            4,
            1,
            FailureModel.BYZANTINE_EXTERNAL,
            (U, V, V, V),
            (Correct(), CrashAt(1), Correct(), Correct()),
        ),
        validity={V: False},
    )
    report = explore(sc)
    assert not report.budget_exceeded
    u, v = U.hex(), V.hex()
    base = lambda node: (node, u, "base")
    fast = lambda node: (node, v, "fast")
    split = ("agreement", "consistency")
    assert set(report.outcomes) == {
        ((base(0), base(2), base(3)), ()),
        ((base(0), base(2), base(3)), ("consistency",)),
        ((base(0), base(2), fast(3)), split),
        ((base(0), fast(2), base(3)), split),
        ((base(0), fast(2), fast(3)), split),
    }


def test_the_reduction_waits_for_full_values_still_to_come():
    # Every node runs a proof-aware machine, node 0 mimicking one with u.
    # Reaching all-u needs the proof-aware rule: a node still collecting may
    # yet broadcast a full value a member would not ignore, so it joins that
    # member's set.  The search takes about 58k events.
    sc = Scenario(
        cfg=OptimizerConfig(
            4,
            1,
            FullValue(V, b"pv"),
            FailureModel.BYZANTINE_EXTERNAL,
            variant=Variant.PROOF_AWARE,
        ),
        initial_values=tuple(FullValue(x, b"p" + x) for x in (V, V, U, U)),
        faults=(Byzantine(MimicHonest(FullValue(U, b"pu"))),) + (Correct(),) * 3,
        schedule=Exhaustive(),
    )
    report = explore(sc)
    assert not report.budget_exceeded
    assert set(report.outcomes) == {
        (tuple((node, x.hex(), "base") for node in (1, 2, 3)), ()) for x in (U, V)
    }


def _acyclic_states(sc):
    """Walk every reachable state once; no state key may recur on the path
    that reached it.  Returns the number of states."""
    root = Runner(sc, record_trace=False)
    root.start_batch()
    done, path = set(), set()

    def walk(rn):
        key = rn.state_key()
        assert key not in path, f"cycle after {rn.applied}"
        if key in done:
            return
        path.add(key)
        for c in rn.enabled_choices("explore"):
            child = rn.clone()
            child.apply_choice(c)
            walk(child)
        path.remove(key)
        done.add(key)

    walk(root)
    return len(done)


def test_the_state_graph_is_acyclic():
    # A mid-run crash drops base wakeups, which are then re-sent.
    crash = _scenario(
        3, 1, FailureModel.BENIGN, (V, V, U), (Correct(), Correct(), CrashAt(1))
    )
    aware = Scenario(
        cfg=OptimizerConfig(
            4,
            1,
            FullValue(V, b"pv"),
            FailureModel.BYZANTINE_EXTERNAL,
            variant=Variant.PROOF_AWARE,
        ),
        initial_values=tuple(FullValue(x, b"p" + x) for x in (V, V, U, U)),
        faults=(Correct(),) * 3 + (Byzantine(Silent()),),
        schedule=Exhaustive(),
    )
    assert _acyclic_states(crash) > 500
    assert _acyclic_states(aware) > 1_000


# --- differential soundness: the pruned, cached search against the plain walk


_PLAIN_CAP = 20_000   # events; a capped plain walk is only a sample


@st.composite
def _small_scenarios(draw):
    """Systems of at most four nodes: every model, both variants, the timeout
    variant and the straw man, with up to f crash or Byzantine faults."""
    kind = draw(
        st.sampled_from(
            ["benign", "classical", "straw-man", "timeout", "external", "proof-aware"]
        )
    )
    model = {
        "benign": FailureModel.BENIGN,
        "external": FailureModel.BYZANTINE_EXTERNAL,
        "proof-aware": FailureModel.BYZANTINE_EXTERNAL,
    }.get(kind, FailureModel.BYZANTINE_CLASSICAL)
    n = 4 if kind == "straw-man" else draw(st.integers(2, 4))
    bound = {"benign": (n - 1) // 2, "classical": (n - 1) // 4}.get(kind, (n - 1) // 3)
    f = bound   # the most faults the model tolerates: 0 or 1 here
    aware = kind == "proof-aware"
    proof = {V: b"pv", U: b"pu"} if aware else {V: b"", U: b""}
    cfg = OptimizerConfig(
        n,
        f,
        FullValue(V, proof[V]),
        model,
        variant=Variant.PROOF_AWARE if aware else Variant.PROOF_OBLIVIOUS,
        sync_timeout=1.0 if kind == "timeout" else None,
        straw_man=kind == "straw-man",
    )
    values = draw(st.lists(st.sampled_from([V, U]), min_size=n, max_size=n))
    kinds = ["crash-at-0", "crash-mid"] if kind != "timeout" else []
    if model is not FailureModel.BENIGN:
        kinds += ["silent", "equivocate", "mimic"]
    if aware:
        # No mid-run crash or mimic: among four proof-aware machines a
        # mid-run crash alone takes about a minute of search.
        kinds = ["crash-at-0", "silent", "equivocate"]
    nodes = st.lists(st.integers(0, n - 1), max_size=f, unique=True)
    faulty = draw(nodes) if kinds else []
    faults = [Correct()] * n
    for node in faulty:
        fault = draw(st.sampled_from(kinds))
        if fault == "crash-at-0":
            faults[node] = CrashAt(0)
        elif fault == "crash-mid":
            faults[node] = CrashAt(1)
        elif fault == "silent":
            faults[node] = Byzantine(Silent())
        elif fault == "equivocate":
            targets = draw(st.frozensets(st.integers(0, n - 1)))
            faults[node] = Byzantine(Equivocate(V, U, targets))
        else:
            x = draw(st.sampled_from([V, U]))
            faults[node] = Byzantine(MimicHonest(FullValue(x, proof[x])))
    validity = {}
    if model is FailureModel.BYZANTINE_EXTERNAL:
        validity = draw(st.sampled_from([{}, {U: False}]))
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(x, proof[x]) for x in values),
        faults=tuple(faults),
        schedule=Exhaustive(),
        validity=validity,
    )


@settings(max_examples=35, deadline=None)
@given(_small_scenarios())
def test_pruned_search_matches_the_plain_walk_on_generated_systems(sc):
    pruned = explore(sc)
    assert not pruned.budget_exceeded
    plain = explore(sc, prune=False, max_events=_PLAIN_CAP)
    if plain.budget_exceeded:
        assert set(plain.outcomes) <= set(pruned.outcomes)
    else:
        assert set(pruned.outcomes) == set(plain.outcomes)


# --- the dependency relation against the case split it replaced


def _reference_independent(a, b, rn):
    """The explorer's independence relation as a case split on the two
    choices' tags, before it was restated through each choice's owner."""
    ta, tb = a[0], b[0]
    if ta in ("deliver", "drop") and tb in ("deliver", "drop"):
        if a[1:4] == b[1:4]:
            return False
        if "drop" in (ta, tb):
            return True
        return _reference_delivers_commute(a, b, rn)
    if "pick" in (ta, tb):
        if ta == tb:
            return False
        other = a if tb == "pick" else b
        return other[0] != "crash"
    if "crash" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        crash, other = (a, b) if ta == "crash" else (b, a)
        node = crash[1]
        if other[0] in ("deliver", "drop"):
            return node not in (other[1], other[2])
        return node != other[1]
    if "decision" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        dec, other = (a, b) if ta == "decision" else (b, a)
        if other[0] == "drop":
            return other[3] != MsgKind.BASE.value or dec[1] != other[2]
        if other[0] == "deliver":
            return dec[1] != other[2] or _deliver_noop(other, rn)
        return dec[1] != other[1]
    if "timer" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        tmr, other = (a, b) if ta == "timer" else (b, a)
        if other[0] in ("deliver", "drop"):
            return tmr[1] != other[2]
        return tmr[1] != other[1]
    return False


def _reference_delivers_commute(a, b, rn):
    _, asrc, adst, akind, _ = a
    _, bsrc, bdst, bkind, _ = b
    if adst != bdst:
        return True
    if _deliver_noop(a, rn) or _deliver_noop(b, rn):
        return True
    if akind != bkind:
        return False
    m = rn.machines[adst]
    if akind == MsgKind.PROPOSAL.value:
        if rn.cfg.sync_timeout is not None:
            return True
        return len(m.votes) + 1 != rn.cfg.threshold
    if akind == MsgKind.FULL.value:
        if m.phase is Phase.FULL_EXCHANGE:
            return len(m.fullvals) + 1 != rn.cfg.threshold
        return True
    return True


def _relation_agrees_on_a_path(sc, seed):
    """Walk one random path to a leaf; in every state, compare the two
    relations on every ordered pair of enabled choices.  Returns the tags
    of the pairs checked."""
    rng = random.Random(seed)
    rn = Runner(sc, record_trace=False)
    rn.start_batch()
    tags = set()
    while enabled := rn.enabled_choices("explore"):
        for a in enabled:
            for b in enabled:
                want = _reference_independent(a, b, rn)
                assert _independent(a, b, rn) == want, (a, b, rn.applied)
                tags.add((a[0], b[0], want))
        rn.apply_choice(rng.choice(enabled))
    return tags


@settings(max_examples=40, deadline=None)
@given(_small_scenarios(), st.integers(0, 2**32 - 1))
def test_the_owner_relation_matches_the_case_split_on_generated_systems(sc, seed):
    _relation_agrees_on_a_path(sc, seed)


def test_the_owner_relation_matches_the_case_split_with_timers_crashes_and_equivocators():
    classical = FailureModel.BYZANTINE_CLASSICAL
    timeout = lambda faults: dataclasses.replace(
        _scenario(4, 1, classical, (V, V, U, U), faults),
        cfg=OptimizerConfig(4, 1, FullValue(V), classical, sync_timeout=1.0),
    )
    systems = [
        timeout((Correct(),) * 3 + (Byzantine(Equivocate(V, U, frozenset({0, 1}))),)),
        timeout((Correct(),) * 3 + (Byzantine(Silent()),)),
        _scenario(5, 2, FailureModel.BENIGN, (V, U, V, U, U),
                  (CrashAt(1), Correct(), Correct(), Correct(), CrashAt(1))),
        dataclasses.replace(
            _scenario(4, 1, FailureModel.BYZANTINE_EXTERNAL, (U, V, V, V),
                      (Correct(), CrashAt(1), Correct(), Correct())),
            validity={V: False},
        ),
        _scenario(5, 1, classical, (V, U, V, U, U),
                  (Correct(),) * 4 + (Byzantine(Equivocate(V, U, frozenset({1, 3}))),)),
    ]
    tags = set()
    for sc in systems:
        for seed in range(8):
            tags |= _relation_agrees_on_a_path(sc, seed)
    # The paths reach every kind of choice, and pairs either way of each
    # rule that tells a crash from its neighbours (the timeout variant, the
    # only one with timers, has no crash faults).
    kinds = {t for t, _, _ in tags}
    assert kinds == {"deliver", "drop", "crash", "timer", "pick", "decision"}
    for other in ("deliver", "drop", "crash", "decision"):
        assert {("crash", other, True), ("crash", other, False)} <= tags
    assert ("crash", "pick", False) in tags


def test_a_decision_commutes_with_a_base_drop_to_its_node():
    # Node 6 sends node 0 a base message at start, and node 5, the only node
    # that proposes on its votes, wakes the fast deciders and then crashes.
    # Node 0 joins on node 6's message, so once the pick is made its
    # decision is pending together with the drop of node 5's wakeup to it.
    faults = [Correct()] * 7
    faults[5] = CrashAt(1)
    faults[6] = Byzantine(ArbitraryScript(((6, 0, MsgKind.BASE, V, b""),)))
    sc = _scenario(7, 2, FailureModel.BYZANTINE_EXTERNAL, (V,) * 5 + (U, V), tuple(faults))
    rn = Runner(sc, record_trace=False)
    rn.start_batch()
    while votes := [c for c in rn.enabled_choices("explore") if c[3:4] == ("proposal",)]:
        rn.apply_choice(votes[0])
    rn.apply_choice(("crash", 5))
    for node in (1, 2, 3, 4):
        rn.apply_choice(("deliver", 5, node, "base", 0))
    rn.apply_choice(("deliver", 6, 0, "base", 0))
    rn.apply_choice(("pick", V.hex()))
    decision, drop = ("decision", 0), ("drop", 5, 0, "base", 0)
    assert {decision, drop} <= set(rn.enabled_choices("explore"))
    assert rn.machines[0].joined_base
    keys = []
    for order in ((decision, drop), (drop, decision)):
        child = rn.clone()
        for c in order:
            child.apply_choice(c)
        keys.append(child.state_key())
    assert keys[0] == keys[1]
    assert _independent(decision, drop, rn) and _independent(drop, decision, rn)
    assert not _reference_independent(decision, drop, rn)   # the case split keeps the order
