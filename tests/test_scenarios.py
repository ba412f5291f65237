"""Named worst-case scenarios, the lower-bound trio, and random campaigns."""

from __future__ import annotations

import pytest

from biased_consensus import (
    Byzantine,
    Correct,
    DecisionPath,
    Equivocate,
    FailureModel,
    FullValue,
    OptimizerConfig,
    Scenario,
    Seeded,
    Silent,
    crash_from_start,
    crash_midway,
    figure1_benign,
    figure2_classical,
    figure3_external,
    lower_bound_sigma,
    random_campaign,
    run,
    run_named,
)

V = b"v"
U = b"u"

NAMED = (
    [figure1_benign(f) for f in (1, 2)]
    + [figure2_classical(f) for f in (1, 2)]
    + [figure2_classical(1, byz_silent=True)]
    + [figure3_external(f) for f in (1, 2)]
    + [figure3_external(1, preferred_valid=False)]
    + lower_bound_sigma(1)
    + lower_bound_sigma(2)
)


@pytest.mark.parametrize("ns", NAMED, ids=[ns.name for ns in NAMED])
def test_named_scenario_meets_its_expectation(ns):
    _trace, ok, detail = run_named(ns)
    assert ok, detail


@pytest.mark.parametrize(
    "ns",
    [figure1_benign(1), figure2_classical(2), figure3_external(1)],
    ids=lambda ns: ns.name,
)
def test_mixed_figures_exercise_both_decision_paths(ns):
    trace, ok, _detail = run_named(ns)
    assert ok
    paths = {r.path for r in trace.decisions.values()}
    assert paths == {DecisionPath.FAST, DecisionPath.BASE}
    assert {r.value for r in trace.decisions.values()} == {V}


def test_lower_bound_stage_three_records_the_violation():
    trace, ok, _ = run_named(lower_bound_sigma(1)[2])
    assert ok
    kinds = {k for k, _ in trace.violations}
    assert "classical-validity" in kinds
    # The decided value is one no correct node ever proposed.
    assert all(r.value == V for r in trace.decisions.values())


@pytest.mark.parametrize("ns", NAMED, ids=[ns.name for ns in NAMED])
def test_scripted_scenarios_replay_byte_identically(ns):
    assert run(ns.scenario).serialize() == run(ns.scenario).serialize()


# --- randomized campaigns ----------------------------------------------------


def _external_cfg(n=7, f=2):
    return OptimizerConfig(n, f, FullValue(V), FailureModel.BYZANTINE_EXTERNAL)


def _template(cfg, values=None):
    """A campaign template: every node correct, all inputs preferred unless given."""
    values = values or (cfg.preferred,) * cfg.n
    return Scenario(cfg, tuple(values), (Correct(),) * cfg.n, Seeded(0))


def test_campaign_all_preferred_with_crash_faults_is_all_fast():
    report = random_campaign(
        _template(_external_cfg()), (crash_from_start, crash_midway), runs=200, seed=11
    )
    assert report.runs == 200
    assert report.fast_rate == 1.0
    assert report.violation_runs == 0
    assert set(report.decided_values) == {V}
    assert report.base_message_runs == 0


def test_campaign_mixed_inputs_stay_safe_but_lose_the_fast_path():
    values = tuple(FullValue(V) for _ in range(6)) + (FullValue(U),)
    report = random_campaign(
        _template(_external_cfg(), values),
        (crash_from_start, crash_midway),
        runs=200,
        seed=11,
    )
    assert report.violation_runs == 0
    # The dissenting node sometimes crashes away, so a few runs still finish
    # all-fast — but most must settle through the base.
    assert 0.0 < report.fast_rate < 1.0
    assert report.base_message_runs > 0


def test_campaign_with_byzantine_strategies_never_violates():
    cfg = OptimizerConfig(9, 2, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    report = random_campaign(
        _template(cfg),
        (Byzantine(Silent()), Byzantine(Equivocate(V, U, frozenset({0, 1, 2})))),
        runs=150,
        seed=5,
    )
    assert report.violation_runs == 0
    assert set(report.decided_values) == {V}
    assert 0.0 < report.fast_rate < 1.0


def test_campaign_zero_runs_gives_an_empty_report():
    report = random_campaign(_template(_external_cfg()), (), runs=0, seed=1)
    assert report.runs == 0
    assert report.fast_rate == 0.0
    assert not report.decided_values
    assert report.violation_runs == 0


def test_campaign_reports_are_reproducible():
    args = (_template(_external_cfg()), (crash_from_start, crash_midway))
    assert random_campaign(*args, runs=120, seed=11) == random_campaign(
        *args, runs=120, seed=11
    )
