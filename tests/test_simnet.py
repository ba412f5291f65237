"""Deterministic network simulator: scheduling, faults, replay, audits."""

from __future__ import annotations

import dataclasses

import pytest

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
    Runner,
    Scenario,
    ScenarioInvalid,
    Scripted,
    Seeded,
    Silent,
    Variant,
    VoteSet,
    byzantine_emit,
    lower_bound_sigma,
    run,
    validate_scenario,
)

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


def test_script_with_impossible_step_deadlocks():
    sc = _benign3(schedule=Scripted(((("deliver", 0, 1, "proposal", 7)),)))
    with pytest.raises(ScenarioInvalid):
        run(sc)


def test_script_with_leftover_steps_is_rejected():
    first = run(_benign3(schedule=Seeded(7)))
    padded = tuple(first.script) + (("timer", 0),)
    with pytest.raises(ScenarioInvalid):
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


def test_machine_nodes_classification():
    classical = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(), Correct(), Correct(), Correct(), Byzantine(Silent())),
        Seeded(0),
    )
    assert Runner(classical).machine_nodes == frozenset({0, 1, 2, 3})
    mimic = _scenario(
        5,
        1,
        FailureModel.BYZANTINE_CLASSICAL,
        (V,) * 5,
        (Correct(),) * 4 + (Byzantine(MimicHonest(FullValue(U))),),
        Seeded(0),
    )
    assert Runner(mimic).machine_nodes == frozenset(range(5))
    # A later crasher still runs a machine until the crash fires; a
    # from-the-start crasher never does.
    late = _benign3(faults=(Correct(), Correct(), CrashAt(4)))
    assert Runner(late).machine_nodes == frozenset({0, 1, 2})
    immediate = _benign3(faults=(Correct(), Correct(), CrashAt(0)))
    assert Runner(immediate).machine_nodes == frozenset({0, 1})


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
