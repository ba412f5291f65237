"""Acceptance gate: every product criterion, one printed pass/fail line each.

Run with -s (or read the captured stdout) to see the checklist:

    [criterion 1] PASS: ...
    ...
    [criterion 7] PASS: ...

Each criterion runs at its stated tolerance and budget; a miss prints FAIL
with the first unmet condition and then fails the test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from collections import Counter
from pathlib import Path

from biased_consensus import (
    Byzantine,
    Correct,
    CrashAt,
    DecisionPath,
    Equivocate,
    Exhaustive,
    FailureModel,
    FullValue,
    MimicHonest,
    OptimizerConfig,
    Runner,
    Scenario,
    Scripted,
    Seeded,
    Silent,
    Variant,
    explore,
    figure1_benign,
    figure2_classical,
    figure3_external,
    lower_bound_sigma,
    run,
    run_named,
    sigma3_properly_bounded,
)
from biased_consensus.harness import summarize, verify_goldens

V = b"v"
U = b"u"
GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

# Violations seen by the runs of criteria 1-5, re-audited by criterion 6.
_RUN_VIOLATIONS: list[tuple[str, str]] = []


class _Unmet(Exception):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise _Unmet(msg)


def _criterion(num: int, body) -> None:
    try:
        detail = body()
    except _Unmet as e:
        print(f"[criterion {num}] FAIL: {e}")
        raise AssertionError(f"criterion {num}: {e}") from None
    print(f"[criterion {num}] PASS: {detail}")


def test_criterion_1_unanimous_preference_decides_fast():
    def body():
        configs = [
            (FailureModel.BENIGN, 5, 2),
            (FailureModel.BYZANTINE_CLASSICAL, 9, 2),
            (FailureModel.BYZANTINE_EXTERNAL, 7, 2),
        ]
        runs_each = 10_000
        t0 = time.monotonic()
        for model, n, f in configs:
            cfg = OptimizerConfig(n, f, FullValue(V), model)
            rng = random.Random(20_000 + n)
            for i in range(runs_each):
                crashers = frozenset(rng.sample(range(n), rng.randint(0, f)))
                sc = Scenario(
                    cfg=cfg,
                    initial_values=tuple(FullValue(V) for _ in range(n)),
                    faults=tuple(
                        CrashAt(0) if j in crashers else Correct() for j in range(n)
                    ),
                    schedule=Seeded(rng.getrandbits(48)),
                )
                trace = run(sc, record_trace=False)
                _RUN_VIOLATIONS.extend(trace.violations)
                tag = f"{model.value} n={n} run {i}"
                _need(trace.violations == [], f"{tag}: {trace.violations}")
                live = set(range(n)) - crashers
                _need(set(trace.decisions) == live, f"{tag}: not everyone decided")
                _need(
                    all(
                        r.value == V and r.path is DecisionPath.FAST
                        for r in trace.decisions.values()
                    ),
                    f"{tag}: a node left the fast path",
                )
                _need(
                    trace.counters["base"]["msgs"] == 0,
                    f"{tag}: base instance saw traffic",
                )
                if i == 0:
                    summary = summarize(sc, trace)
                    _need(
                        summary["fast_path"]
                        and all(
                            d["rounds"] == 1 for d in summary["decisions"].values()
                        ),
                        f"{tag}: decision took more than one round",
                    )
        elapsed = time.monotonic() - t0
        _need(elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
        return (
            f"3 models x {runs_each} all-preferred runs with up to f start "
            f"crashes: 100% fast decisions in one round, zero base messages "
            f"({elapsed:.1f}s < 60s)"
        )

    _criterion(1, body)


def _criterion2_scenarios():
    # Input patterns range over the correct nodes' values; the adversary
    # holds the last id (relabeling symmetry) and its own initial value is
    # dead state.
    for vals in itertools.product((V, U), repeat=3):
        for fault in (None, CrashAt(0), CrashAt(1)):
            faults = [Correct(), Correct(), Correct()]
            if fault is not None:
                faults[2] = fault
            yield 3, 1, FailureModel.BENIGN, vals, tuple(faults)
    classical = [Silent()] + [
        Equivocate(V, U, frozenset(t))
        for r in range(5)
        for t in itertools.combinations(range(4), r)
    ]
    for vals in itertools.product((V, U), repeat=4):
        for strat in classical:
            yield (
                5,
                1,
                FailureModel.BYZANTINE_CLASSICAL,
                vals + (U,),
                (Correct(),) * 4 + (Byzantine(strat),),
            )
    external = (
        [Silent()]
        + [
            Equivocate(V, U, frozenset(t))
            for r in range(4)
            for t in itertools.combinations(range(3), r)
        ]
        + [MimicHonest(FullValue(V)), MimicHonest(FullValue(U))]
    )
    for vals in itertools.product((V, U), repeat=3):
        for strat in external:
            yield (
                4,
                1,
                FailureModel.BYZANTINE_EXTERNAL,
                vals + (U,),
                (Correct(),) * 3 + (Byzantine(strat),),
            )


def test_criterion_2_exhaustive_exploration_finds_no_violation():
    def body():
        t0 = time.monotonic()
        count = 0
        for n, f, model, vals, faults in _criterion2_scenarios():
            sc = Scenario(
                cfg=OptimizerConfig(n, f, FullValue(V), model),
                initial_values=tuple(FullValue(x) for x in vals),
                faults=faults,
                schedule=Exhaustive(),
            )
            report = explore(sc)
            count += 1
            tag = f"{model.value} vals={[x.decode() for x in vals]} faults={faults}"
            _need(not report.budget_exceeded, f"{tag}: exploration truncated")
            _need(
                report.violation_count == 0,
                f"{tag}: {dict(report.violation_kinds)}",
            )
        elapsed = time.monotonic() - t0
        _need(elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s")
        return (
            f"{count} exhaustive explorations across all value patterns, "
            f"crash timings, equivocation targets and mimic values: "
            f"0 violations ({elapsed:.1f}s < 600s)"
        )

    _criterion(2, body)


def test_criterion_3_worst_case_figures_match_goldens():
    def body():
        for f in (1, 2):
            for builder in (figure1_benign, figure2_classical, figure3_external):
                ns = builder(f)
                trace, ok, detail = run_named(ns)
                _RUN_VIOLATIONS.extend(trace.violations)
                _need(ok, f"{ns.name}: {detail}")
                values = {r.value for r in trace.decisions.values()}
                paths = {r.path for r in trace.decisions.values()}
                _need(values == {V}, f"{ns.name}: decided {values}")
                _need(
                    paths == {DecisionPath.FAST, DecisionPath.BASE},
                    f"{ns.name}: expected one fast and one base decision at least",
                )
                pinned = (GOLDENS / f"{ns.name}.trace.jsonl").read_text()
                _need(
                    trace.serialize() == pinned,
                    f"{ns.name}: trace diverges from its golden",
                )
        return (
            "figures f=1,2: every correct node decides the preferred value, "
            "both paths occur, traces byte-match the goldens"
        )

    _criterion(3, body)


def test_criterion_4_lower_bound_violation_and_proper_bound_safety():
    def body():
        staged = lower_bound_sigma(1)[2]
        trace, ok, detail = run_named(staged)
        _RUN_VIOLATIONS.extend(trace.violations)
        _need(ok, f"{staged.name}: {detail}")
        kinds = {k for k, _ in trace.violations}
        _need("classical-validity" in kinds, f"saw {sorted(kinds)}")
        replay = run(
            dataclasses.replace(
                staged.scenario, schedule=Scripted(tuple(trace.script))
            )
        )
        _need(
            any(k == "classical-validity" for k, _ in replay.violations),
            "witness script did not reproduce the violation",
        )
        report = explore(sigma3_properly_bounded(1))
        _need(not report.budget_exceeded, "proper-bound exploration truncated")
        _need(
            report.violation_count == 0,
            f"proper bound violated: {dict(report.violation_kinds)}",
        )
        return (
            "misbounded stage three yields a replayable classical-validity "
            "witness; the same adversary against the proper bound survives "
            f"full exploration ({report.leaves} leaves, 0 violations)"
        )

    _criterion(4, body)


def test_criterion_5_fast_path_moves_no_proof_bytes():
    def body():
        n, f = 4, 1
        val_len = 1
        proof = b"p" * (64 * val_len)
        cfg = OptimizerConfig(
            n,
            f,
            FullValue(V, proof),
            FailureModel.BYZANTINE_EXTERNAL,
            variant=Variant.PROOF_AWARE,
        )
        fast = Scenario(
            cfg=cfg,
            initial_values=tuple(FullValue(V, proof) for _ in range(n)),
            faults=(Correct(),) * n,
            schedule=Seeded(1),
        )
        trace = run(fast)
        _RUN_VIOLATIONS.extend(trace.violations)
        payload = sum(c["val_bytes"] for c in trace.counters.values())
        proof_bytes = sum(c["proof_bytes"] for c in trace.counters.values())
        _need(
            payload == n * (n - 1) * val_len,
            f"fast run moved {payload} payload bytes, wanted {n * (n - 1) * val_len}",
        )
        _need(proof_bytes == 0, f"fast run moved {proof_bytes} proof bytes")
        slow = Scenario(
            cfg=cfg,
            initial_values=(
                FullValue(V, proof),
                FullValue(U, b"q" * 64),
                FullValue(V, proof),
                FullValue(U, b"q" * 64),
            ),
            faults=(Correct(),) * n,
            schedule=Seeded(1),
        )
        strace = run(slow)
        _RUN_VIOLATIONS.extend(strace.violations)
        _need(strace.violations == [], f"slow run violated: {strace.violations}")
        total = sum(
            c["val_bytes"] + c["proof_bytes"] for c in strace.counters.values()
        )
        floor = 65 * n * (n - 1) * val_len
        _need(total >= floor, f"slow run moved {total} bytes, expected >= {floor}")
        return (
            f"with 64x proofs: fast run moved exactly {payload} payload bytes "
            f"and 0 proof bytes; mixed run moved {total} >= {floor}"
        )

    _criterion(5, body)


def test_criterion_6_join_once_and_decide_once_audits():
    def body():
        flagged = {
            k for k, _ in _RUN_VIOLATIONS if k in ("join-once", "decide-once")
        }
        _need(not flagged, f"earlier criteria tripped audits: {sorted(flagged)}")
        # Direct evidence on mixed runs from each family: at most one base
        # proposal per node, exactly one decision per surviving correct node.
        reps = [
            figure1_benign(1).scenario,
            figure2_classical(1).scenario,
            figure3_external(1).scenario,
            lower_bound_sigma(1)[1].scenario,
        ]
        for sc in reps:
            rn = Runner(sc)
            rn.run()
            # Recount from the traced actions, not from the runner's books.
            proposals, decisions = Counter(), Counter()
            for ev in rn.events:
                node = ev["dst"] if ev["ev"] == "deliver" else ev.get("node")
                for line in ev.get("actions", ()):
                    proposals[node] += line.startswith("propose ")
                    decisions[node] += line.startswith("decide ")
            _need(
                all(c <= 1 for c in proposals.values()),
                f"{sc.name}: a node proposed twice",
            )
            _need(
                all(decisions[i] == 1 for i in rn._correct_live()),
                f"{sc.name}: a correct node decided {max(decisions.values())}x",
            )
        return (
            f"no join-once/decide-once audit fired across "
            f"{len(_RUN_VIOLATIONS)} retained violation records; direct "
            f"recount on {len(reps)} mixed runs confirms <=1 proposal and "
            f"exactly 1 decision per correct node"
        )

    _criterion(6, body)


def test_criterion_7_scripted_reruns_are_byte_identical():
    def body():
        first = verify_goldens(str(GOLDENS))
        second = verify_goldens(str(GOLDENS))
        _need(len(first) == 11, f"expected 11 goldens, found {len(first)}")
        for name, ok, detail in first + second:
            _need(ok, f"{name}: {detail}")
        return "golden suite replays byte-identically twice (11 scenarios)"

    _criterion(7, body)
