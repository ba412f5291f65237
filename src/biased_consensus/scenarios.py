"""Canonical scenarios: worst-case one-round figures, the straw-man
lower-bound trio, and randomized adversarial campaigns.

The three figure builders each stage the tightest vote distribution their
failure model allows: one side of the system sees a unanimous preferred
quorum and decides in the first round, the other side sees exactly enough
preferred votes to adopt, and everyone converges through the base instance.

The lower-bound trio runs a deliberately misbounded configuration (classical
model at the weaker resiliency with a presence-based adoption rule) through
three staged executions; the last one ends in a genuine classical-validity
violation, which is the point.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

from .core import (
    FailureModel,
    FullValue,
    MsgKind,
    NodeId,
    OptimizerConfig,
    ScenarioInvalid,
)
from .optimizer import DecisionPath
from .simnet import (
    Byzantine,
    Correct,
    CrashAt,
    Equivocate,
    Exhaustive,
    Fault,
    MimicHonest,
    Scenario,
    Scripted,
    Seeded,
    Silent,
    Trace,
    correct_live,
    run,
)

V = b"v"
U = b"u"


# --- expectations -----------------------------------------------------------

@dataclass(frozen=True)
class AllDecide:
    value: bytes
    path: str | None = None   # "fast" | "base" | None for either


@dataclass(frozen=True)
class MixedPathsDecide:
    value: bytes


@dataclass(frozen=True)
class ViolationExpected:
    kind: str


Expectation = Union[AllDecide, MixedPathsDecide, ViolationExpected]


@dataclass
class NamedScenario:
    name: str
    scenario: Scenario
    expected: Expectation


def check_expected(ns: NamedScenario, trace: Trace) -> tuple[bool, str]:
    """Compare a finished run against the scenario's stated outcome."""
    live = correct_live(ns.scenario.faults, trace.crashed)
    exp = ns.expected
    if isinstance(exp, ViolationExpected):
        kinds = {k for k, _ in trace.violations}
        if exp.kind in kinds:
            return True, f"violation {exp.kind} observed"
        return False, f"expected violation {exp.kind}, saw {sorted(kinds) or 'none'}"
    if trace.violations:
        return False, f"unexpected violations: {trace.violations}"
    missing = [i for i in live if i not in trace.decisions]
    if missing:
        return False, f"nodes {missing} never decided"
    values = {trace.decisions[i].value for i in live}
    paths = {trace.decisions[i].path for i in live}
    if values != {exp.value}:
        return False, f"decided {sorted(v.hex() for v in values)}, wanted {exp.value.hex()}"
    if isinstance(exp, AllDecide):
        if exp.path == "fast" and paths != {DecisionPath.FAST}:
            return False, "expected every decision on the fast path"
        if exp.path == "base" and paths != {DecisionPath.BASE}:
            return False, "expected every decision through the base instance"
        return True, f"all decided {exp.value.hex()}"
    if paths != {DecisionPath.FAST, DecisionPath.BASE}:
        return False, f"expected both decision paths, saw {sorted(p.value for p in paths)}"
    return True, f"all decided {exp.value.hex()} on mixed paths"


def run_named(ns: NamedScenario, record_trace: bool = True) -> tuple[Trace, bool, str]:
    trace = run(ns.scenario, record_trace=record_trace)
    ok, detail = check_expected(ns, trace)
    return trace, ok, detail


# --- figure scenarios -------------------------------------------------------

def _deliver(src: NodeId, dst: NodeId) -> tuple:
    return ("deliver", src, dst, MsgKind.PROPOSAL.value)


def _stage(
    fast: list[NodeId], slow: list[NodeId], byz: list[NodeId], adopt: int, f: int
) -> list[tuple]:
    """Votes for a split round: each fast node hears the other fast nodes
    and the Byzantine ones, a unanimous quorum; each slow node hears f - 1
    slow peers, the Byzantine nodes, then the first adopt fast nodes."""
    steps: list[tuple] = []
    for p in fast:
        steps.extend(_deliver(src, p) for src in fast + byz if src != p)
    for q in slow:
        others = [x for x in slow if x != q][: f - 1]
        steps.extend(_deliver(src, q) for src in others + byz + fast[:adopt])
    return steps


def figure1_benign(f: int) -> NamedScenario:
    """Benign worst case at n = 2f + 1.

    f + 1 nodes hold the preferred value, f hold another.  Every quorum of
    n - f votes must contain at least one preferred vote, so the minority
    adopts it and both paths converge on the preferred value.
    """
    n = 2 * f + 1
    cfg = OptimizerConfig(n, f, FullValue(V), FailureModel.BENIGN)
    v_side = list(range(0, f + 1))
    u_side = list(range(f + 1, n))
    initial = tuple(FullValue(V if i in v_side else U) for i in range(n))
    sc = Scenario(
        cfg=cfg,
        initial_values=initial,
        faults=tuple(Correct() for _ in range(n)),
        schedule=Scripted(tuple(_stage(v_side, u_side, [], 1, f))),
        name=f"figure1-benign-f{f}",
    )
    return NamedScenario(sc.name, sc, MixedPathsDecide(V))


def figure2_classical(f: int, byz_silent: bool = False) -> NamedScenario:
    """Classical worst case at n = 4f + 1.

    2f + 1 correct nodes hold the preferred value, f hold another, and the f
    Byzantine nodes equivocate: preferred votes toward the majority side,
    other votes toward the minority.  The majority side fast-decides off a
    unanimous quorum; the minority still counts f + 1 preferred votes — more
    than the faults could fake — and adopts.  With a silent adversary instead
    nobody fast-decides but every node adopts, so agreement is unthreatened.
    """
    n = 4 * f + 1
    cfg = OptimizerConfig(n, f, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    v_side = list(range(0, 2 * f + 1))
    u_side = list(range(2 * f + 1, 3 * f + 1))
    byz = list(range(3 * f + 1, n))
    initial = tuple(FullValue(V if i in v_side else U) for i in range(n))
    strategy = (
        Silent() if byz_silent else Equivocate(V, U, frozenset(v_side))
    )
    faults: list[Fault] = [
        Byzantine(strategy) if i in byz else Correct() for i in range(n)
    ]
    steps: list[tuple] = []
    if byz_silent:
        # Quorums are exactly the correct nodes; every node sees both values.
        for p in v_side + u_side:
            steps.extend(
                _deliver(src, p) for src in v_side + u_side if src != p
            )
        expected: Expectation = AllDecide(V, path="base")
    else:
        steps = _stage(v_side, u_side, byz, f + 1, f)
        expected = MixedPathsDecide(V)
    name = f"figure2-classical-f{f}" + ("-silent" if byz_silent else "")
    sc = Scenario(
        cfg=cfg,
        initial_values=initial,
        faults=tuple(faults),
        schedule=Scripted(tuple(steps)),
        name=name,
    )
    return NamedScenario(sc.name, sc, expected)


def figure3_external(f: int, preferred_valid: bool = True) -> NamedScenario:
    """External-validity worst case at n = 3f + 1.

    A single preferred vote from anyone is enough to adopt — provided the
    preferred value passes the validity predicate.  The invalid variant
    silences the adversary (equivocators pushing an invalid preferred value
    could otherwise hand one side a unanimous quorum and an invalid fast
    decision, which is an assumption breach, not an adoption question) and
    shows every node keeping its own value, converging on the minority's
    valid one.
    """
    n = 3 * f + 1
    cfg = OptimizerConfig(n, f, FullValue(V), FailureModel.BYZANTINE_EXTERNAL)
    v_side = list(range(0, f + 1))
    u_side = list(range(f + 1, 2 * f + 1))
    byz = list(range(2 * f + 1, n))
    initial = tuple(FullValue(V if i in v_side else U) for i in range(n))
    if preferred_valid:
        strategy: object = Equivocate(V, U, frozenset(v_side))
        validity: dict[bytes, bool] = {}
        steps = _stage(v_side, u_side, byz, 1, f)
        expected: Expectation = MixedPathsDecide(V)
        name = f"figure3-external-f{f}"
    else:
        strategy = Silent()
        validity = {V: False}
        steps = []
        for p in v_side:
            steps.extend(_deliver(src, p) for src in v_side if src != p)
            steps.extend(_deliver(src, p) for src in u_side)
        for q in u_side:
            steps.extend(_deliver(src, q) for src in u_side if src != q)
            steps.extend(_deliver(src, q) for src in v_side)
        expected = AllDecide(U, path="base")
        name = f"figure3-external-f{f}-invalid-preferred"
    faults: list[Fault] = [
        Byzantine(strategy) if i in byz else Correct() for i in range(n)
    ]
    sc = Scenario(
        cfg=cfg,
        initial_values=initial,
        faults=tuple(faults),
        schedule=Scripted(tuple(steps)),
        validity=validity,
        name=name,
    )
    return NamedScenario(sc.name, sc, expected)


# --- the lower-bound trio ---------------------------------------------------

def lower_bound_sigma(f: int) -> list[NamedScenario]:
    """Three staged runs of the misbounded configuration at n = 3f + 1.

    The configuration pairs the classical failure model with the weaker
    f < n/3 resiliency and a presence-based adoption rule (adopt on a single
    preferred vote).  Stage one: everyone holds the preferred value and
    fast-decides off quorums padded by value-mimicking Byzantine nodes.
    Stage two: a minority holds another value, sees one late preferred vote,
    adopts it, and the run still converges.  Stage three: every correct node
    holds the other value, one of them is tricked into adopting by a single
    Byzantine preferred vote, and the base instance may then legally decide
    the preferred value — which no correct node ever held.  That run records
    a classical-validity violation.
    """
    if f < 1:
        raise ScenarioInvalid("the lower-bound construction needs f >= 1")
    n = 3 * f + 1
    cfg = OptimizerConfig(
        n, f, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, straw_man=True
    )
    correct = list(range(0, 2 * f + 1))
    byz = list(range(2 * f + 1, n))

    # Stage one: unanimous preferred value, mimics included.
    s1 = Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(V) for _ in range(n)),
        faults=tuple(
            Byzantine(MimicHonest(FullValue(V))) if i in byz else Correct()
            for i in range(n)
        ),
        schedule=Scripted(()),
        name=f"sigma1-f{f}",
    )
    sigma1 = NamedScenario(s1.name, s1, AllDecide(V, path="fast"))

    # Stage two: a preferred-side majority fast-decides exactly as in stage
    # one; the minority hears one preferred vote only afterwards and adopts.
    p1_side = correct[: f + 1]
    p2_side = correct[f + 1 :]
    initial2 = tuple(
        FullValue(V if i in p1_side else U) for i in range(n)
    )
    s2 = Scenario(
        cfg=cfg,
        initial_values=initial2,
        faults=tuple(
            Byzantine(Equivocate(V, U, frozenset(p1_side))) if i in byz else Correct()
            for i in range(n)
        ),
        schedule=Scripted(tuple(_stage(p1_side, p2_side, byz, 1, f))),
        name=f"sigma2-f{f}",
    )
    sigma2 = NamedScenario(s2.name, s2, MixedPathsDecide(V))

    # Stage three: all correct nodes hold the other value; the mimics still
    # push the preferred one.  One correct node's quorum contains a single
    # mimic vote, the presence rule makes it adopt, and the instance may then
    # legally pick the preferred value.
    tricked = correct[-1]
    initial3 = tuple(FullValue(U) for _ in range(n))
    steps3: list[tuple] = []
    for p in correct:
        if p == tricked:
            continue
        steps3.extend(_deliver(src, p) for src in correct if src != p)
    others = [x for x in correct if x != tricked][: 2 * f - 1]
    steps3.extend(_deliver(src, tricked) for src in others)
    steps3.append(_deliver(byz[0], tricked))
    steps3.append(("pick", V.hex()))
    s3 = Scenario(
        cfg=cfg,
        initial_values=initial3,
        faults=tuple(
            Byzantine(MimicHonest(FullValue(V))) if i in byz else Correct()
            for i in range(n)
        ),
        schedule=Scripted(tuple(steps3)),
        name=f"sigma3-f{f}",
    )
    sigma3 = NamedScenario(s3.name, s3, ViolationExpected("classical-validity"))
    return [sigma1, sigma2, sigma3]


def sigma3_properly_bounded(f: int = 1) -> Scenario:
    """The stage-three adversary pointed at a correctly bounded system.

    Same mimicking strategy and all-other-value inputs, but n = 4f + 1 with
    the real adoption rule: a single Byzantine preferred vote can no longer
    clear the f + 1 bar, so exploration finds no violation anywhere.
    """
    n = 4 * f + 1
    cfg = OptimizerConfig(n, f, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    byz = list(range(3 * f + 1, n))
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(U) for _ in range(n)),
        faults=tuple(
            Byzantine(MimicHonest(FullValue(V))) if i in byz else Correct()
            for i in range(n)
        ),
        schedule=Exhaustive(),
        name=f"sigma3-proper-f{f}",
    )


# --- randomized campaigns ---------------------------------------------------

FaultTemplate = Union[Fault, Callable[[random.Random], Fault]]


@dataclass
class CampaignReport:
    runs: int = 0
    violation_runs: int = 0
    violation_kinds: Counter = field(default_factory=Counter)
    fast_runs: int = 0
    base_message_runs: int = 0
    decided_values: Counter = field(default_factory=Counter)
    messages: dict = field(default_factory=dict)

    @property
    def fast_rate(self) -> float:
        return self.fast_runs / self.runs if self.runs else 0.0


def random_campaign(
    template: Scenario, strategies: Sequence[FaultTemplate], runs: int, seed: int
) -> CampaignReport:
    """Seeded batch of randomized fault placements and delivery orders.

    Each run is the template scenario, base and validity table included,
    with a random subset of at most f nodes faulted by templates drawn from
    strategies (a Fault, or a callable producing one from the run's
    generator) and one seeded interleaving.  Deterministic for a given seed;
    runs execute sequentially so the report is reproducible.
    """
    cfg = template.cfg
    rng = random.Random(seed)
    report = CampaignReport()
    report.messages = {
        k.value: {"msgs": 0, "val_bytes": 0, "proof_bytes": 0} for k in MsgKind
    }
    for _ in range(runs):
        faults: list[Fault] = [Correct() for _ in range(cfg.n)]
        if strategies and cfg.f > 0:
            count = rng.randint(0, cfg.f)
            for node in rng.sample(range(cfg.n), count):
                tpl = strategies[rng.randrange(len(strategies))]
                faults[node] = tpl(rng) if callable(tpl) else tpl
        sc = replace(
            template, faults=tuple(faults), schedule=Seeded(rng.getrandbits(48)), name="campaign"
        )
        trace = run(sc, record_trace=False)
        report.runs += 1
        if trace.violations:
            report.violation_runs += 1
            for k, _ in trace.violations:
                report.violation_kinds[k] += 1
        live = correct_live(faults, trace.crashed)
        recs = [trace.decisions[i] for i in live if i in trace.decisions]
        if recs and len(recs) == len(live):
            for r in recs:
                report.decided_values[r.value] += 1
            if all(r.path is DecisionPath.FAST for r in recs):
                report.fast_runs += 1
        if trace.counters[MsgKind.BASE.value]["msgs"] > 0:
            report.base_message_runs += 1
        for kind, c in trace.counters.items():
            agg = report.messages[kind]
            for key in agg:
                agg[key] += c[key]
    return report


def crash_from_start(_rng: random.Random) -> Fault:
    return CrashAt(0)


def crash_midway(rng: random.Random) -> Fault:
    return CrashAt(rng.randrange(1, 40))
