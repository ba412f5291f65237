"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import biased_consensus as bc  # noqa: E402
from biased_consensus import optimizer, simnet  # noqa: E402
from run import percentile_index, samples_beyond  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each reading advances by the next step, so span times are exact."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_subtracts_direct_children_only():
    # Readings: outer start, mid start, leaf start, leaf end, mid end,
    # leaf start, leaf end, outer end.
    tracer = tracing.Tracer(FakeClock([1, 2, 3, 4, 5, 6, 7, 8]))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def outer_body():
        mid()
        leaf()

    tracer.wrap("outer", outer_body)()
    totals = tracer.layer_totals()
    # outer 1..36 (35), mid 3..15 (12), leaves 6..10 (4) and 21..28 (7).
    assert totals["leaf"] == (11.0, 2)
    assert totals["mid"] == (12.0 - 4.0, 1)
    assert totals["outer"] == (35.0 - 12.0 - 7.0, 1)
    assert sum(s for s, _ in totals.values()) == 35.0
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_span_survives_an_exception_and_records_run_ids():
    tracer = tracing.Tracer(FakeClock([1, 1, 1, 1]))

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    tracer.run_id = 7
    with pytest.raises(KeyError):
        wrapped()
    tracer.run_id = 8
    with pytest.raises(KeyError):
        wrapped()
    assert list(tracer.run) == [7, 8]
    assert tracer.layer_totals()["boom"] == (2.0, 2)
    assert tracer._open == []


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = tracing.Tracer(FakeClock([1, 2, 3, 4]))
    inner = tracer.wrap("inner", lambda: 5, measure=lambda r: r)
    tracer.wrap("outer", lambda: inner())()
    path = tmp_path / "spans.bin"
    tracer.write(str(path), {"workload": "w"})
    header, cols = tracing.read_spans(str(path))
    assert header["names"] == ["inner", "outer"]
    assert header["workload"] == "w"
    assert list(cols["start"]) == list(tracer.start)
    assert list(cols["end"]) == list(tracer.end)
    assert list(cols["parent"]) == [-1, 0]
    assert tracer.counters["inner"] == 5


def test_installed_wraps_names_where_they_are_looked_up_and_restores():
    originals = (
        optimizer.adoption_criteria,
        simnet.run_floodset,
        bc.explore,
        simnet.Runner.__dict__["enabled_choices"],
    )
    tracer = tracing.Tracer()
    with tracing.installed(tracer, extra_namespaces=(workloads,)):
        assert optimizer.adoption_criteria.__wrapped__ is originals[0]
        assert simnet.run_floodset.__wrapped__ is originals[1]
        assert bc.explore.__wrapped__ is originals[2]
        sc = workloads.build_record_replay(3)[0]   # a floodset run
        bc.run(sc)
    assert (
        optimizer.adoption_criteria,
        simnet.run_floodset,
        bc.explore,
        simnet.Runner.__dict__["enabled_choices"],
    ) == originals
    totals = tracer.layer_totals()
    assert totals["base.run_floodset"][1] == 1
    assert totals["simnet.run"][1] == 1
    names = tracer.names
    run_span = list(tracer.name_id).index(names.index("simnet.run"))
    assert any(
        tracer.parent[i] == run_span
        and names[tracer.name_id[i]] == "simnet.enabled_choices"
        for i in range(len(tracer))
    )


def test_percentile_index_is_nearest_rank():
    assert percentile_index(1, 99) == 0
    assert percentile_index(100, 50) == 49
    assert percentile_index(100, 99) == 98
    assert percentile_index(1000, 99) == 989
    with pytest.raises(ValueError):
        percentile_index(0, 50)


def test_p99_leaves_ten_samples_beyond_it_from_a_thousand_samples():
    assert samples_beyond(999, 99) == 9
    for n in (1000, 1001, 6000, 24000):
        assert samples_beyond(n, 99) >= 10
    # Enough campaign runs per repetition that one repetition suffices.
    assert samples_beyond(workloads.CAMPAIGN_RUNS, 99) >= 10


def test_tally_counts_own_errors_and_fingerprint_mismatches_once_each():
    rep = workloads.Rep(
        errors=[None, "wrong path", None, None],
        fingerprints=["a", "b", "x", "d"],
    )
    tally = workloads.Tally()
    workloads.tally_rep(tally, "w", rep, ["a", "other", "c", "d"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.failures == [
        "w op 1: wrong path",
        "w op 2: result differs from the pinned reference",
    ]
    workloads.tally_rep(tally, "w", rep, None)
    assert (tally.attempted, tally.failed) == (8, 3)


def test_tally_fails_a_repetition_with_missing_operations():
    tally = workloads.Tally()
    workloads.tally_rep(tally, "w", workloads.Rep(errors=[None], fingerprints=["a"]), ["a", "b"])
    assert tally.failed == 1


def test_check_run_catches_a_unanimous_run_that_left_the_fast_path():
    sc = workloads.build_campaign_small(5)[0]   # benign, unanimous inputs
    trace = bc.run(sc, record_trace=False)
    assert workloads.check_run(sc, trace) is None
    node = min(i for i in trace.decisions if trace.final_phases[i] != "crashed")
    rec = trace.decisions[node]
    trace.decisions[node] = simnet.DecisionRecord(
        node, rec.value, optimizer.DecisionPath.BASE, rec.event_index
    )
    assert workloads.check_run(sc, trace) == "unanimous run left the fast path"
    trace.violations.append(("agreement", "x"))
    assert workloads.check_run(sc, trace).startswith("violations")


def test_digest_follows_schedule_and_decisions():
    sc = workloads.build_campaign_small(5)[1]
    a, b = bc.run(sc, record_trace=False), bc.run(sc, record_trace=False)
    assert workloads.run_digest(a) == workloads.run_digest(b)
    b.script.pop()
    assert workloads.run_digest(a) != workloads.run_digest(b)


def test_pinned_fingerprints_apply_only_to_the_reference_seed():
    ref = workloads.load_reference()
    seed = ref["seed"]
    assert workloads.pinned_fingerprints(ref, "campaign-small", seed) is not None
    assert workloads.pinned_fingerprints(ref, "campaign-small", seed + 1) is None
    assert workloads.pinned_fingerprints(ref, "explore-exhaustive", seed + 1) is not None
    assert workloads.pinned_fingerprints(ref, "record-replay", seed) is None


def test_builds_repeat_for_a_seed_and_differ_across_seeds():
    for wl in workloads.WORKLOADS.values():
        assert wl.build(11) == wl.build(11)
        if wl.seeded:
            assert wl.build(11) != wl.build(12)


def _bench(cwd: Path, env: dict, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "record-replay",
           "--seed", "1", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_with_sim_event_budget_set():
    env = dict(os.environ, SIM_EVENT_BUDGET="1000000")
    proc = _bench(ROOT, env)
    assert proc.returncode != 0
    assert "SIM_EVENT_BUDGET" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "SIM_EVENT_BUDGET"}
    proc = _bench(tmp_path, env)
    assert proc.returncode != 0
    assert proc.stdout == ""
