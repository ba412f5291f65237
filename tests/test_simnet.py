"""Deterministic network simulator: scheduling, faults, replay, audits."""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from biased_consensus import (
    ArbitraryScript,
    Byzantine,
    ConfigError,
    Correct,
    CrashAt,
    DecisionPath,
    Envelope,
    Equivocate,
    FailureModel,
    FullValue,
    ImpersonationAttempt,
    MimicHonest,
    MsgKind,
    NonQuiescence,
    OptimizerConfig,
    OptimizerNode,
    Phase,
    ProposeToBase,
    Runner,
    Scenario,
    ScenarioInvalid,
    Scripted,
    Seeded,
    Silent,
    Variant,
    VoteSet,
    byzantine_emit,
    figure1_benign,
    lower_bound_sigma,
    run,
    validate_scenario,
)
from biased_consensus.simnet import correct_live

V = b"v"
U = b"u"


def _scenario(n, f, model, values, faults, schedule, **kw):
    cfg = OptimizerConfig(n=n, f=f, preferred=FullValue(V), model=model)
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(v) for v in values),
        faults=faults,
        schedule=schedule,
        **kw,
    )


def _benign3(values=(V, V, V), faults=None, schedule=None):
    return _scenario(
        3,
        1,
        FailureModel.BENIGN,
        values,
        faults or (Correct(), Correct(), Correct()),
        schedule or Seeded(7),
    )


def test_seeded_run_is_deterministic():
    a = run(_benign3(schedule=Seeded(7)))
    b = run(_benign3(schedule=Seeded(7)))
    assert a.serialize() == b.serialize()
    assert a.meta["seed"] == 7


def test_script_replay_reproduces_a_seeded_run():
    first = run(_benign3(values=(V, U, V), schedule=Seeded(21)))
    replay = run(_benign3(values=(V, U, V), schedule=Scripted(tuple(first.script))))
    assert replay.events == first.events
    assert replay.decisions == first.decisions
    assert replay.counters == first.counters
    assert replay.violations == first.violations
    assert replay.final_phases == first.final_phases


def test_all_preferred_fast_path_counters():
    trace = run(_benign3())
    assert all(r.path is DecisionPath.FAST for r in trace.decisions.values())
    assert trace.counters["proposal"] == {"msgs": 6, "val_bytes": 6, "proof_bytes": 0}
    assert trace.counters["base"]["msgs"] == 0
    assert trace.counters["full"]["msgs"] == 0
    assert trace.violations == []


def test_mixed_inputs_settle_through_the_base():
    for seed in range(12):
        trace = run(_benign3(values=(V, U, V), schedule=Seeded(seed)))
        assert trace.violations == []
        assert len({r.value for r in trace.decisions.values()}) == 1
        assert any(ev["ev"] == "pick" for ev in trace.events)


def test_crash_from_start_is_silent_and_unreachable():
    trace = run(_benign3(faults=(Correct(), Correct(), CrashAt(0))))
    assert trace.final_phases[2] == "crashed"
    assert 2 not in trace.decisions
    assert trace.violations == []
    # Two live broadcasters, two destinations each; nothing is ever
    # delivered to the dead node.
    assert trace.counters["proposal"]["msgs"] == 4
    assert not any(
        ev["ev"] == "deliver" and ev["dst"] == 2 for ev in trace.events
    )


def test_late_crash_respects_its_seeded_firing_index():
    trace = run(_benign3(faults=(Correct(), Correct(), CrashAt(3))))
    crash_events = [ev for ev in trace.events if ev["ev"] == "crash"]
    assert len(crash_events) == 1
    assert crash_events[0]["i"] >= 3
    assert trace.final_phases[2] == "crashed"
    assert trace.violations == []
    assert trace.decisions[0].value == trace.decisions[1].value == V


def test_drop_of_live_senders_envelope_is_rejected():
    rn = Runner(_benign3())
    rn.start_batch()
    with pytest.raises(ScenarioInvalid):
        rn.apply_choice(("drop", 0, 1, "proposal", 0))


@pytest.mark.parametrize(
    "choice",
    [
        ("deliver", 0, 1, "proposal", 1),   # one envelope on the stream
        ("deliver", 0, 1, "proposal", -1),
        ("deliver", 0, 0, "proposal", 0),
        ("timer", 0),                       # no timers without a timeout
        ("decision", 0),                    # nothing picked yet
    ],
)
def test_choices_without_a_pending_event_are_rejected(choice):
    rn = Runner(_benign3())
    rn.start_batch()
    before = dict(rn.pending)
    with pytest.raises(ScenarioInvalid, match="no pending"):
        rn.apply_choice(choice)
    assert rn.pending == before


def _reference_seeded_choices(rn: Runner) -> list[tuple]:
    """The linear enumeration the seeded index replaced: one pass over the
    whole queue per step, and one more per timer.  The index must list the
    same tuples in the same order, or seeded runs would change."""
    pending = list(rn.pending.values())
    out: list[tuple] = []
    occ: dict[tuple, int] = {}
    only_gated_crashes = True
    for tag, x in pending:
        if tag == "deliver":
            key = (x.src, x.dst, x.kind.value)
            k = occ.get(key, 0)
            occ[key] = k + 1
            out.append(("deliver", *key, k))
            if x.src in rn.crashed:
                out.append(("drop", *key, k))
            only_gated_crashes = False
        elif tag == "decision":
            out.append((tag, x))
            only_gated_crashes = False
        elif tag == "timer":
            if not any(
                t == "deliver" and e.dst == x and e.kind is MsgKind.PROPOSAL
                for t, e in pending
            ):
                out.append((tag, x))
                only_gated_crashes = False
        elif rn.event_index >= rn.crash_after.get(x, 0):
            out.append((tag, x))
            only_gated_crashes = False
    if rn.base_legal and not rn.pick_done:
        out.extend(("pick", v.hex()) for v in rn.base_legal)
        only_gated_crashes = False
    if only_gated_crashes:
        out.extend(ev for ev in pending if ev[0] == "crash")
    return out


@st.composite
def _seeded_systems(draw, max_n=12, mimic=False):
    n = draw(st.integers(3, max_n))
    model = draw(st.sampled_from(list(FailureModel)))
    timeout = model is FailureModel.BYZANTINE_CLASSICAL and draw(st.booleans())
    aware = model is FailureModel.BYZANTINE_EXTERNAL and draw(st.booleans())
    divisor = {
        FailureModel.BENIGN: 2,
        FailureModel.BYZANTINE_CLASSICAL: 3 if timeout else 4,
        FailureModel.BYZANTINE_EXTERNAL: 3,
    }[model]
    f = (n - 1) // divisor
    # Lean towards the preferred value when fast deciders are the subject.
    pool = (V, V, V, U) if mimic else (V, U)
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kinds = [] if timeout else ["crash"]
    if model is not FailureModel.BENIGN:
        kinds += ["silent", "equivocate"] + (["mimic"] if mimic else [])
    proof = (lambda v: b"p" + v) if aware else (lambda v: b"")
    faults = [Correct()] * n
    for node in draw(st.sets(st.integers(0, n - 1), max_size=f)):
        kind = draw(st.sampled_from(kinds))
        if kind == "crash":
            faults[node] = CrashAt(draw(st.integers(0, 4 * n)))
        elif kind == "silent":
            faults[node] = Byzantine(Silent())
        elif kind == "mimic":
            value = draw(st.sampled_from(pool))
            faults[node] = Byzantine(MimicHonest(FullValue(value, proof(value))))
        else:
            targets = draw(st.frozensets(st.integers(0, n - 1)))
            faults[node] = Byzantine(Equivocate(V, U, targets))
    cfg = OptimizerConfig(
        n, f, FullValue(V, proof(V)), model,
        variant=Variant.PROOF_AWARE if aware else Variant.PROOF_OBLIVIOUS,
        sync_timeout=1.0 if timeout else None,
    )
    validity = {}
    if model is FailureModel.BYZANTINE_EXTERNAL:
        validity = draw(st.sampled_from(({}, {U: False}, {V: False})))
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(v, proof(v)) for v in vals),
        faults=tuple(faults),
        schedule=Seeded(0),
        validity=validity,
    )


@settings(max_examples=60, deadline=None)
@given(_seeded_systems(), st.integers(0, 2**32), st.integers(0, 200))
def test_the_seeded_index_lists_the_linear_enumeration(sc, seed, clone_at):
    rn = Runner(sc, record_trace=False)
    rn.start_batch()
    rng = random.Random(seed)
    while True:
        if rn.event_index == clone_at:
            rn = rn.clone()   # drops the index, which the next call rebuilds
        view = rn.enabled_choices("seeded")
        assert [view[i] for i in range(len(view))] == _reference_seeded_choices(rn)
        if not view:
            break
        rn.apply_choice(view[rng.randrange(len(view))])


def test_script_with_impossible_step_deadlocks():
    impossible = ("deliver", 0, 1, "proposal", 7)
    sc = _benign3(schedule=Scripted((impossible, ("timer", 0))))
    with pytest.raises(ScenarioInvalid, match=re.escape(f"step {impossible!r} never")):
        run(sc)


def _check_the_head_test(sc: Scenario, seed: int) -> Counter:
    """Drive sc through random scripted choices; at every step the indexed
    head test must agree with membership in the listed choices, for each
    listed choice and for near misses.  Counts the near misses seen."""
    rn = Runner(sc, record_trace=False)
    rn.start_batch()
    rng = random.Random(seed)
    seen: Counter = Counter()
    while True:
        choices = rn.enabled_choices("scripted")
        listed = set(choices)
        probes = [(c, "listed") for c in choices]
        probes += [((*c, 0), "wrong arity") for c in choices]
        for c in choices:
            if c[0] == "deliver":
                probes.append(((*c[:4], len(rn._slots[c[1:4]])), "k past the end"))
                if c[1] not in rn.crashed:
                    probes.append((("drop", *c[1:]), "drop from a live sender"))
        for node in range(sc.cfg.n):
            if ("timer", node) in rn._slots and rn._proposals_to[node]:
                probes.append((("timer", node), "timer with proposals pending"))
        if rn.base_legal and not rn.pick_done:
            for v in (V, U, b"w"):
                if v not in rn.base_legal:
                    probes.append((("pick", v.hex()), "pick outside the legal set"))
        for step, kind in probes:
            assert rn._enabled(step) == (step in listed), (step, kind)
            seen[kind] += 1
        if not choices:
            return seen
        rn.apply_choice(choices[rng.randrange(len(choices))])


@settings(max_examples=40, deadline=None)
@given(_seeded_systems(), st.integers(0, 2**32))
def test_the_head_test_agrees_with_the_listed_choices(sc, seed):
    _check_the_head_test(sc, seed)


def test_the_head_test_meets_every_near_miss():
    seen: Counter = Counter()
    crashy = _scenario(
        5, 2, FailureModel.BENIGN, (V, U, V, U, V),
        (Correct(), Correct(), Correct(), CrashAt(1), CrashAt(1)), Seeded(0),
    )
    timed = Scenario(
        cfg=OptimizerConfig(
            4, 1, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, sync_timeout=1.0
        ),
        initial_values=tuple(FullValue(v) for v in (V, U, V, U)),
        faults=(Correct(),) * 4,
        schedule=Seeded(0),
    )
    for sc in (crashy, timed):
        for seed in range(5):
            seen += _check_the_head_test(sc, seed)
    assert set(seen) == {
        "listed", "wrong arity", "k past the end", "drop from a live sender",
        "timer with proposals pending", "pick outside the legal set",
    }, seen
    assert seen["listed"] > seen["pick outside the legal set"] > 0


def _woken(rn: Runner) -> set[int]:
    """Nodes with a wakeup in flight: a pending BASE envelope to them."""
    return {
        x.dst for tag, x in rn.pending.values()
        if tag == "deliver" and x.kind is MsgKind.BASE
    }


def _reference_bystanders(rn: Runner) -> list[int]:
    """The per-event scan the bystander set replaced: every correct live
    node that fast-decided, has not joined the base and has no wakeup in
    flight."""
    woken = _woken(rn)
    return [
        node
        for node in correct_live(rn.sc.faults, rn.crashed)
        if rn.machines[node].phase is Phase.FAST_DECIDED
        and not rn.machines[node].joined_base
        and node not in woken
    ]


def _check_the_bystander_set(sc: Scenario, seed: int, clone_at: int) -> Counter:
    """Drive sc through random scripted choices, leaning towards lost BASE
    wakeups and towards crashing their senders; after every step the
    bystander set must list what the scan finds.  At step clone_at a clone
    runs to the end first, and the original is checked after it.  Counts
    what the run met."""
    rng = random.Random(seed)
    seen: Counter = Counter()

    def drive(rn: Runner) -> None:
        while True:
            assert sorted(rn._unwoken) == _reference_bystanders(rn)
            assert not _woken(rn) & rn.is_byz   # only correct nodes are woken
            if rn.event_index == clone_at and "clone" not in seen:
                seen["clone"] += 1
                drive(rn.clone())
                assert sorted(rn._unwoken) == _reference_bystanders(rn)
            choices = rn.enabled_choices("scripted")
            if not choices:
                return
            wakeups = [c for c in choices if c[3:4] == ("base",)]
            drops = [c for c in wakeups if c[0] == "drop"]
            senders = [("crash", c[1]) for c in wakeups if ("crash", c[1]) in choices]
            if drops and rng.random() < 0.7:
                choice = rng.choice(drops)
                seen["rearmed"] += rn.machines[choice[2]].phase is Phase.FAST_DECIDED
            elif senders and rng.random() < 0.5:
                choice = rng.choice(senders)
            else:
                choice = rng.choice(choices)
            seen["crash"] += choice[0] == "crash"
            rn.apply_choice(choice)

    rn = Runner(sc, record_trace=False)
    rn.start_batch()
    drive(rn)
    return seen


@settings(max_examples=150, deadline=None)
@given(_seeded_systems(max_n=9, mimic=True), st.integers(0, 2**32), st.integers(0, 60))
def test_the_bystander_set_lists_what_the_scan_finds(sc, seed, clone_at):
    _check_the_bystander_set(sc, seed, clone_at)


def test_the_bystander_set_meets_lost_wakeups_and_mimics():
    seen: Counter = Counter()
    crashy = _scenario(
        5, 2, FailureModel.BENIGN, (V, V, V, U, V),
        (Correct(), CrashAt(3), Correct(), Correct(), Correct()), Seeded(0),
    )
    mimics = _scenario(
        5, 1, FailureModel.BYZANTINE_CLASSICAL, (V, V, V, U, V),
        (Correct(), Correct(), Correct(), Correct(), Byzantine(MimicHonest(FullValue(V)))),
        Seeded(0),
    )
    for sc in (crashy, mimics):
        for seed in range(20):
            seen += _check_the_bystander_set(sc, seed, seed % 8)
    assert seen["rearmed"] > 0 and seen["crash"] > 0 and seen["clone"] > 0, seen


def test_script_with_leftover_steps_is_rejected():
    first = run(_benign3(schedule=Seeded(7)))
    padded = tuple(first.script) + (("timer", 0), ("crash", 1))
    named = re.escape("2 unconsumed steps, first ('timer', 0)")
    with pytest.raises(ScenarioInvalid, match=named):
        run(_benign3(schedule=Scripted(padded)))


def test_event_budget_exhaustion(monkeypatch):
    monkeypatch.setenv("SIM_EVENT_BUDGET", "2")
    with pytest.raises(NonQuiescence):
        run(_benign3())


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_event_budget_is_rejected_naming_the_variable(monkeypatch, raw):
    monkeypatch.setenv("SIM_EVENT_BUDGET", raw)
    with pytest.raises(ConfigError, match=f"SIM_EVENT_BUDGET.*'{raw}'"):
        run(_benign3())


def test_envelope_is_frozen_and_caches_its_kind():
    env = Envelope(0, 0, 1, MsgKind.PROPOSAL, V, b"")
    assert env.kindval == "proposal"
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.val = U


def _machine_nodes(sc: Scenario) -> set[int]:
    return {i for i, m in enumerate(Runner(sc).machines) if m is not None}


def test_machine_nodes_classification():
    classical = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(), Correct(), Correct(), Correct(), Byzantine(Silent())),
        Seeded(0),
    )
    assert _machine_nodes(classical) == {0, 1, 2, 3}
    mimic = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(),) * 4 + (Byzantine(MimicHonest(FullValue(U))),),
        Seeded(0),
    )
    assert _machine_nodes(mimic) == set(range(5))
    # A later crasher still runs a machine until the crash fires; a
    # from-the-start crasher never does.
    late = _benign3(faults=(Correct(), Correct(), CrashAt(4)))
    assert _machine_nodes(late) == {0, 1, 2}
    immediate = _benign3(faults=(Correct(), Correct(), CrashAt(0)))
    assert _machine_nodes(immediate) == {0, 1}


def test_impersonation_is_rejected_at_start():
    sc = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(),) * 4
        + (Byzantine(ArbitraryScript(((3, 0, MsgKind.PROPOSAL, U, b""),))),),
        Seeded(0),
    )
    with pytest.raises(ImpersonationAttempt):
        run(sc)


def test_scripted_byzantine_send_validation():
    with pytest.raises(ScenarioInvalid):
        byzantine_emit(
            ArbitraryScript(((4, 4, MsgKind.PROPOSAL, U, b""),)), 4, 5
        )
    with pytest.raises(ScenarioInvalid):
        byzantine_emit(
            ArbitraryScript(((4, 0, MsgKind.PROPOSAL, b"", b""),)), 4, 5
        )


def test_equivocation_splits_the_audience():
    sends = byzantine_emit(
        Equivocate(val_a=V, val_b=U, targets_a=frozenset({0, 2})), 4, 5
    )
    assert len(sends) == 4
    assert all(src == 4 for src, *_ in sends)
    got = {dst: val for _, dst, _, val, _ in sends}
    assert got == {0: V, 1: U, 2: V, 3: U}


def test_validate_scenario_rejections():
    ok = _benign3()
    assert validate_scenario(ok) is ok
    bad_lengths = _benign3()
    bad_lengths.initial_values = (FullValue(V),)
    with pytest.raises(ScenarioInvalid):
        validate_scenario(bad_lengths)
    with pytest.raises(ScenarioInvalid):
        validate_scenario(
            _benign3(faults=(Correct(), Correct(), Byzantine(Silent())))
        )
    with pytest.raises(ScenarioInvalid):
        validate_scenario(
            _benign3(faults=(Correct(), CrashAt(0), CrashAt(0)))
        )
    proofy = _benign3()
    proofy.initial_values = (FullValue(V, b"p"), FullValue(V), FullValue(V))
    with pytest.raises(ScenarioInvalid):
        validate_scenario(proofy)
    mismatched_base = _benign3()
    mismatched_base.base = "phase_king"
    with pytest.raises(ScenarioInvalid):
        validate_scenario(mismatched_base)
    # The straw man gets no more faults than f either.
    sigma1 = lower_bound_sigma(1)[0].scenario   # n=4, f=1, one mimic
    over = dataclasses.replace(
        sigma1, faults=(Correct(), Correct(), Byzantine(Silent()), sigma1.faults[3])
    )
    with pytest.raises(ScenarioInvalid, match="2 actual faults exceed f=1"):
        validate_scenario(over)


class _ProposesTwice(OptimizerNode):
    """A faulty machine: every base proposal it makes, it makes twice."""

    def on_proposal(self, sender, val):
        actions = super().on_proposal(sender, val)
        return actions + [a for a in actions if isinstance(a, ProposeToBase)]


def test_a_second_base_proposal_is_a_join_once_violation():
    sc = figure1_benign(1).scenario   # node 2 adopts and proposes on a vote
    rn = Runner(sc)
    rn.machines[2] = _ProposesTwice(sc.cfg, 2, sc.initial_values[2], sc.predicate())
    trace = rn.run()
    assert ("join-once", "node 2 proposed more than once") in trace.violations
    assert [k for k, _ in trace.violations] == ["join-once"]
    assert set(trace.decisions) == {0, 1, 2}   # the run still finished


def test_concrete_floodset_base_settles_mixed_inputs():
    sc = _scenario(
        3,
        1,
        FailureModel.BENIGN,
        (V, U, V),
        (Correct(),) * 3,
        Seeded(3),
        base="floodset",
    )
    trace = run(sc)
    assert trace.meta["base"] == "floodset"
    assert trace.violations == []
    assert len({r.value for r in trace.decisions.values()}) == 1
    sync = [ev for ev in trace.events if ev["ev"] == "sync_base"]
    assert len(sync) == 1 and sync[0]["protocol"] == "floodset"
    # Counter covers the protocol's traffic plus any wakeup envelopes sent
    # to fast-decided bystanders.
    assert trace.counters["base"]["msgs"] >= sync[0]["messages"] > 0


def test_concrete_phase_king_base_settles_mixed_inputs():
    sc = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V, U, V, U, V),
        (Correct(),) * 5,
        Seeded(5),
        base="phase_king",
    )
    trace = run(sc)
    assert trace.violations == []
    assert len({r.value for r in trace.decisions.values()}) == 1
    assert any(ev["ev"] == "sync_base" for ev in trace.events)


def test_concrete_eig_base_settles_mixed_inputs():
    cfg = OptimizerConfig(
        n=4,
        f=1,
        preferred=FullValue(V),
        model=FailureModel.BYZANTINE_EXTERNAL,
        binary_domain=True,
    )
    sc = Scenario(
        cfg=cfg,
        initial_values=(FullValue(V), FullValue(U), FullValue(V), FullValue(U)),
        faults=(Correct(),) * 4,
        schedule=Seeded(9),
        base="eig",
    )
    trace = run(sc)
    assert trace.violations == []
    assert len({r.value for r in trace.decisions.values()}) == 1
    assert any(ev["ev"] == "sync_base" for ev in trace.events)


def test_mimicking_byzantine_runs_a_machine_with_its_own_value():
    sc = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(),) * 4 + (Byzantine(MimicHonest(FullValue(U))),),
        Seeded(2),
    )
    trace = run(sc)
    assert trace.violations == []
    # The mimic broadcast u, so nobody saw a unanimous first round.
    assert all(r.path is DecisionPath.BASE for n, r in trace.decisions.items() if n < 4)


def test_concrete_base_with_equivocators_replays_under_its_script():
    # The Byzantine nodes scramble their phase-king messages from a generator
    # that a scripted replay must reseed exactly as the seeded run did.
    cfg = OptimizerConfig(9, 2, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    faults = [Correct()] * 9
    faults[0] = Byzantine(Equivocate(V, U, frozenset({3, 5, 7, 8})))
    faults[4] = Byzantine(Equivocate(V, U, frozenset({1, 4, 7, 8})))
    sc = Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(v) for v in (V, U, U, V, V, V, U, U, U)),
        faults=tuple(faults),
        schedule=Seeded(6),
        base="phase_king",
    )
    seeded = run(sc)
    replay = run(dataclasses.replace(sc, schedule=Scripted(tuple(seeded.script))))
    assert any(ev["ev"] == "sync_base" for ev in seeded.events)
    assert replay.events == seeded.events
    assert replay.decisions == seeded.decisions


# --- cloning ---------------------------------------------------------------


def _state(rn: Runner) -> dict:
    """Every field of a runner and its machines, minus the validity closure
    that each runner builds afresh."""

    def fields(obj) -> dict:
        return {
            k: v.entries if isinstance(v, VoteSet) else v
            for k, v in vars(obj).items()
            if k != "valid"
        }

    state = fields(rn)
    state["machines"] = [m and fields(m) for m in rn.machines]
    state["base"] = vars(rn.base)
    return state


def _clone_midway_then_finish(sc: Scenario, must_contain: str) -> None:
    """Replay a recorded run step by step; before each step, clone it and
    drive the clone to quiescence down another branch.  The original must
    stay equal, field by field, to a twin that is never cloned, and end with
    the trace of an uncloned run: no clone shares state the original mutates."""
    script = [tuple(s) for s in run(sc).script]
    assert any(must_contain in step for step in script)
    scripted = dataclasses.replace(sc, schedule=Scripted(tuple(script)))
    original, twin = Runner(scripted), Runner(scripted)
    original.start_batch()
    twin.start_batch()
    detours = 0
    for i, step in enumerate(script):
        dup = original.clone()
        others = [c for c in dup.enabled_choices("explore") if c != step]
        if others:
            detours += 1
            dup.apply_choice(others[i % len(others)])
            while choices := dup.enabled_choices("explore"):
                dup.apply_choice(choices[0] if i % 2 else choices[-1])
            dup._audit()
        assert _state(original) == _state(twin), f"clone leaked before step {i}"
        original.apply_choice(step)
        twin.apply_choice(step)
    assert detours > len(script) // 2
    assert original.enabled_choices("scripted") == []
    original._audit()
    uncloned = run(scripted)
    assert original.trace().serialize() == uncloned.serialize()
    assert original.trace().script == uncloned.script


def test_clone_is_independent_benign_with_a_mid_run_crash():
    sc = _scenario(
        5,
        2,
        FailureModel.BENIGN,
        (V, U, V, U, V),
        (Correct(), CrashAt(6), Correct(), Correct(), Correct()),
        Seeded(3),
    )
    _clone_midway_then_finish(sc, "crash")


def test_clone_is_independent_proof_aware_with_mixed_inputs():
    cfg = OptimizerConfig(
        4,
        1,
        FullValue(V),
        FailureModel.BYZANTINE_EXTERNAL,
        variant=Variant.PROOF_AWARE,
    )
    sc = Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(v, b"proof-" + v) for v in (V, U, V, U)),
        faults=(Correct(),) * 4,
        schedule=Seeded(2),
    )
    _clone_midway_then_finish(sc, "full")


def test_clone_is_independent_in_the_timeout_variant():
    cfg = OptimizerConfig(
        4, 1, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, sync_timeout=1.0
    )
    sc = Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(v) for v in (V, U, V, U)),
        faults=(Correct(), Correct(), Correct(), Byzantine(Equivocate(V, U))),
        schedule=Seeded(4),
    )
    _clone_midway_then_finish(sc, "timer")


def test_clone_is_independent_when_the_clones_find_violations():
    sigma3 = lower_bound_sigma(1)[2].scenario   # straw man, ends in a violation
    _clone_midway_then_finish(sigma3, "pick")


# --- the explorer's state key ----------------------------------------------

# Fields that state_key() leaves out, and why: a new field must land here or
# in the key.
_RUNNER_NOT_STATE = {
    # The scenario and settings, fixed for the whole run.
    "sc", "cfg", "valid", "record_trace", "budget", "flavor",
    "is_byz", "crash_after",
    # History no future choice, audit or outcome reads: traffic counts,
    # envelope numbering, the step count (explore never gates crashes on
    # it), the applied script and the trace.
    "counters", "seq", "event_index", "applied", "events",
    # Set once by start_batch; a cache of correct_live(faults, crashed).
    "_started", "_live_cache",
    # Indexes derived from pending (and the slot counter behind its keys),
    # and the sizes the legal set was last computed for.
    "_next_slot", "_slots", "_proposals_to", "_tree", "_gates",
    "_legal_sizes",
}
_MACHINE_NOT_STATE = {
    # Fixed at construction, or (started) set once by start().
    "cfg", "node_id", "my_value", "valid", "started",
}


def _key_reads(obj) -> set:
    """The instance fields obj.state_key() reads."""
    reads = set()

    class Spy(type(obj)):
        def __getattribute__(self, name):
            reads.add(name)
            return object.__getattribute__(self, name)

    spy = object.__new__(Spy)
    spy.__dict__.update(vars(obj))
    spy.state_key()
    return reads & set(vars(obj))


def _external4(variant, values=(V, U, V, U)):
    cfg = OptimizerConfig(
        4, 1, FullValue(V), FailureModel.BYZANTINE_EXTERNAL, variant=variant
    )
    rn = Runner(
        Scenario(
            cfg=cfg,
            initial_values=tuple(FullValue(v, b"p" + v) for v in values)
            if variant is Variant.PROOF_AWARE
            else tuple(FullValue(v) for v in values),
            faults=(Correct(),) * 4,
            schedule=Seeded(0),
        ),
        record_trace=False,
    )
    rn.start_batch()
    return rn


@pytest.mark.parametrize("variant", list(Variant))
def test_state_key_reads_every_field_that_is_state(variant):
    rn = _external4(variant)   # collecting machines: every field is live
    assert set(vars(rn.base)) == {"proposals", "decided"}   # both in the key
    for obj, not_state in ((rn, _RUNNER_NOT_STATE), (rn.machines[0], _MACHINE_NOT_STATE)):
        reads = _key_reads(obj)
        assert not reads & not_state
        assert set(vars(obj)) == reads | not_state


def test_commuting_deliveries_in_either_order_give_equal_keys():
    # Nodes 0 and 1 each hold two votes of a mixed round; the third vote
    # makes each broadcast its full value, in the order the votes arrive.
    rn = _external4(Variant.PROOF_AWARE)
    rn.apply_choice(("deliver", 1, 0, "proposal", 0))
    rn.apply_choice(("deliver", 0, 1, "proposal", 0))
    first, second = ("deliver", 2, 0, "proposal", 0), ("deliver", 2, 1, "proposal", 0)
    a, b = rn.clone(), rn.clone()
    a.apply_choice(first)
    a.apply_choice(second)
    b.apply_choice(second)
    b.apply_choice(first)
    assert a.pending != b.pending   # emitted in another order, with other seqs
    assert a.state_key() == b.state_key()
    assert a.state_key() != rn.state_key()


def test_a_collecting_vote_book_is_state_and_a_settled_one_is_not():
    rn = Runner(
        _scenario(5, 2, FailureModel.BENIGN, (V,) * 5, (Correct(),) * 5, Seeded(0)),
        record_trace=False,
    )
    rn.start_batch()
    a, b = rn.clone(), rn.clone()
    a.machines[0].votes.add(1, V)
    b.machines[0].votes.add(1, U)
    assert a.state_key() != b.state_key()
    for x in (a, b):
        x.machines[0].phase = Phase.IN_BASE
    assert a.state_key() == b.state_key()


def test_a_phase_king_base_needs_n_above_4f():
    # The timeout variant and the straw man allow f < n/3, which the phase
    # king protocol does not survive: the scenario is refused up front.
    for n, f, extra in ((16, 5, {"sync_timeout": 1.0}), (4, 1, {"straw_man": True})):
        cfg = OptimizerConfig(
            n, f, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, **extra
        )
        sc = Scenario(
            cfg=cfg,
            initial_values=(FullValue(V),) * n,
            faults=(Correct(),) * n,
            schedule=Seeded(0),
            base="phase_king",
        )
        with pytest.raises(ScenarioInvalid, match=f"n > 4f, got n={n} f={f}"):
            validate_scenario(sc)


def test_an_eig_base_past_the_event_budget_is_refused(monkeypatch):
    # The relay tree has n(n-1)...(n-f) leaves per node.
    def eig(n, f):
        cfg = OptimizerConfig(
            n, f, FullValue(V), FailureModel.BYZANTINE_EXTERNAL, binary_domain=True
        )
        return Scenario(
            cfg=cfg,
            initial_values=tuple(FullValue(V if i % 2 else U) for i in range(n)),
            faults=(Correct(),) * n,
            schedule=Seeded(0),
            base="eig",
        )

    with pytest.raises(ScenarioInvalid, match="5765760 relay-tree leaves"):
        validate_scenario(eig(16, 5))
    trace = run(eig(13, 4), record_trace=False)   # 154,440 leaves, about 2 s
    assert trace.violations == []
    assert trace.counters["base"]["msgs"] > 0
    monkeypatch.setenv("SIM_EVENT_BUDGET", "154439")
    with pytest.raises(ScenarioInvalid, match="154440 relay-tree leaves"):
        validate_scenario(eig(13, 4))
