"""The benchmark's four workloads: inputs made from a seed, the fixed work of
one repetition, and the checks on every output.

Each workload has a ``build(seed)`` that makes its scenarios in benchmark
code (the library receives only the finished scenarios) and a
``run(inputs, tracer)`` that drives the library's public API over them once,
as a closed loop with one caller issuing operations back to back.  The
simulator runs on a logical clock with no injected delay, so every timing
is CPU time.  Every workload injects crash or Byzantine faults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import biased_consensus as bc
from biased_consensus import harness
from biased_consensus.core import FailureModel, FullValue, OptimizerConfig, Variant
from biased_consensus.optimizer import DecisionPath
from biased_consensus.simnet import (
    Byzantine,
    Correct,
    CrashAt,
    Equivocate,
    Exhaustive,
    Scenario,
    Scripted,
    Seeded,
    Silent,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"
REFERENCE = Path(__file__).resolve().with_name("reference.json")

V = b"v"
U = b"u"
PROOF_V = b"p" * 1024
PROOF_U = b"q" * 1024


@dataclass
class Rep:
    """What one repetition of a workload did.

    errors and fingerprints hold one entry per operation.  A fingerprint
    pins an operation's observable result (a digest of a seeded run's
    applied schedule and decisions, or a search's outcome set), so that two
    repetitions, or two commits, can be shown to have done the same work.
    """

    op_s: list[float] = field(default_factory=list)
    events: int = 0
    errors: list[str | None] = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def add_traffic(self, trace) -> None:
        for kind, c in trace.counters.items():
            self.counts[f"traffic.{kind}.msgs"] += c["msgs"]
            self.counts[f"traffic.{kind}.proof_bytes"] += c["proof_bytes"]
        self.counts["traffic.decisions"] += len(trace.decisions)


@dataclass
class Tally:
    """Operations attempted and failed; error_rate is their ratio."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {error}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tally_rep(tally: Tally, name: str, rep: Rep, expected: list | None) -> None:
    """Count every operation of rep, failing it on its own error or when its
    fingerprint differs from the expected one."""
    if expected is not None and len(expected) != len(rep.fingerprints):
        tally.record(name, f"{len(rep.fingerprints)} operations, expected {len(expected)}")
    for i, error in enumerate(rep.errors):
        if error is None and expected is not None and i < len(expected):
            if rep.fingerprints[i] != expected[i]:
                error = "result differs from the pinned reference"
        tally.record(f"{name} op {i}", error)


# --- checks -----------------------------------------------------------------

def check_run(sc: Scenario, trace) -> str | None:
    """The reason a finished run is wrong, or None.

    Beyond the simulator's own audit: every live correct node decided one
    value, a fast decision is the preferred value, the value was held by a
    correct node or is the preferred one, and a run whose inputs are all
    preferred and whose faults cannot split views (no equivocator) decides
    fast everywhere with zero base messages.
    """
    if trace.violations:
        return f"violations {trace.violations[:2]}"
    cfg = sc.cfg
    live = [
        i
        for i in range(cfg.n)
        if not isinstance(sc.faults[i], Byzantine)
        and trace.final_phases.get(i) != "crashed"
    ]
    missing = [i for i in live if i not in trace.decisions]
    if missing:
        return f"nodes {missing} never decided"
    records = [trace.decisions[i] for i in live]
    values = {r.value for r in records}
    if len(values) > 1:
        return f"disagreement {sorted(v.hex() for v in values)}"
    pref = cfg.preferred.val
    if any(r.path is DecisionPath.FAST and r.value != pref for r in records):
        return "fast decision on a non-preferred value"
    allowed = {pref} | {
        sc.initial_values[i].val
        for i in range(cfg.n)
        if not isinstance(sc.faults[i], Byzantine)
    }
    if not values <= allowed:
        return f"decided {sorted(v.hex() for v in values)}, no correct node held it"
    unanimous = all(v.val == pref for v in sc.initial_values) and not any(
        isinstance(fl, Byzantine) and isinstance(fl.strategy, Equivocate)
        for fl in sc.faults
    )
    if unanimous:
        if any(r.path is not DecisionPath.FAST for r in records):
            return "unanimous run left the fast path"
        if trace.counters["base"]["msgs"]:
            return "unanimous run sent base messages"
    return None


def run_digest(trace) -> str:
    """Digest of a run's applied schedule and its decisions."""
    doc = repr(
        (
            trace.script,
            [
                (node, r.value, r.path.value, r.event_index)
                for node, r in sorted(trace.decisions.items())
            ],
        )
    )
    return hashlib.blake2b(doc.encode(), digest_size=6).hexdigest()


def _body(text: str) -> str:
    """A serialized trace without its meta line, which names the schedule."""
    return text.split("\n", 1)[1]


# --- seeded-large and campaign-small ---------------------------------------

def _faulted(rng: random.Random, n: int, makers: list) -> tuple:
    """Faults for n nodes: makers[j](rng, n) at the j-th of len(makers)
    seeded positions, Correct elsewhere."""
    faults = [Correct()] * n
    for node, make in zip(rng.sample(range(n), len(makers)), makers):
        faults[node] = make(rng, n)
    return tuple(faults)


def _crash_start(_rng: random.Random, _n: int):
    return CrashAt(0)


def _crash_mid(rng: random.Random, n: int):
    return CrashAt(rng.randrange(1, n * n))


def _silent(_rng: random.Random, _n: int):
    return Byzantine(Silent())


def _equivocate(rng: random.Random, n: int):
    return Byzantine(Equivocate(V, U, frozenset(rng.sample(range(n), rng.randint(0, n - 1)))))


def _inputs(rng: random.Random, n: int, preferred: int, proofs: bool) -> tuple:
    """n initial values, exactly `preferred` of them the preferred one, at
    seeded positions."""
    held = [V] * preferred + [U] * (n - preferred)
    rng.shuffle(held)
    proof = {V: PROOF_V, U: PROOF_U} if proofs else {V: b"", U: b""}
    return tuple(FullValue(x, proof[x]) for x in held)


def build_seeded_large(seed: int) -> list[Scenario]:
    """Two classical runs at n=64, f=15, 60% preferred inputs, three mid-run
    crashes each.  The pending queue holds about n^2 envelopes, so the
    scheduler dominates."""
    rng = random.Random(seed)
    n, f = 64, 15
    cfg = OptimizerConfig(n, f, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    out = []
    for _ in range(2):
        values = _inputs(rng, n, round(0.6 * n), proofs=False)
        faults = _faulted(rng, n, [lambda r, _n: CrashAt(r.randrange(1, 3000))] * 3)
        out.append(
            Scenario(
                cfg=cfg,
                initial_values=values,
                faults=faults,
                schedule=Seeded(rng.getrandbits(48)),
                name="seeded-large",
            )
        )
    return out


CAMPAIGN_RUNS = 6000
CAMPAIGN_CONFIGS = [
    OptimizerConfig(5, 2, FullValue(V), FailureModel.BENIGN),
    OptimizerConfig(9, 2, FullValue(V), FailureModel.BYZANTINE_CLASSICAL),
    OptimizerConfig(7, 2, FullValue(V), FailureModel.BYZANTINE_EXTERNAL),
    OptimizerConfig(
        7,
        2,
        FullValue(V, PROOF_V),
        FailureModel.BYZANTINE_EXTERNAL,
        variant=Variant.PROOF_AWARE,
    ),
]


def _campaign_fault(rng: random.Random, n: int, model: FailureModel):
    kind = 0 if model is FailureModel.BENIGN else rng.randrange(3)
    if kind == 0:
        return CrashAt(rng.choice((0, rng.randrange(1, 2 * n))))
    return _silent(rng, n) if kind == 1 else _equivocate(rng, n)


def build_campaign_small(seed: int) -> list[Scenario]:
    """Thousands of small runs over four configurations, half with
    unanimous preferred inputs and half mixed, each with 0..f crash, Silent
    or Equivocate faults.  The configuration, the input shape and the fault
    count rotate, so every seed does the same mix of work; the seed places
    the values and faults and picks the fault kinds and schedules."""
    rng = random.Random(seed)
    out = []
    for i in range(CAMPAIGN_RUNS):
        cfg = CAMPAIGN_CONFIGS[i % len(CAMPAIGN_CONFIGS)]
        turn = i // len(CAMPAIGN_CONFIGS)
        preferred = cfg.n if turn % 2 == 0 else cfg.n // 2
        values = _inputs(rng, cfg.n, preferred, cfg.variant is Variant.PROOF_AWARE)
        count = (turn // 2) % (cfg.f + 1)
        faults = _faulted(
            rng, cfg.n, [lambda r, n: _campaign_fault(r, n, cfg.model)] * count
        )
        out.append(
            Scenario(
                cfg=cfg,
                initial_values=values,
                faults=faults,
                schedule=Seeded(rng.getrandbits(48)),
                name="campaign-small",
            )
        )
    return out


def run_seeded(scenarios: list[Scenario], tracer=None) -> Rep:
    """One seeded run per scenario, traces off; op time is the run() call."""
    rep = Rep()
    for i, sc in enumerate(scenarios):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            trace = bc.run(sc, record_trace=False)
        except bc.ProtocolError as e:
            rep.errors.append(f"{type(e).__name__}: {e}")
            rep.fingerprints.append(None)
            continue
        rep.op_s.append(time.perf_counter() - t0)
        rep.events += len(trace.script)
        rep.add_traffic(trace)
        rep.errors.append(check_run(sc, trace))
        rep.fingerprints.append(run_digest(trace))
    return rep


# --- explore-exhaustive -----------------------------------------------------

def _exhaustive(n, f, model, values, faults, variant=Variant.PROOF_OBLIVIOUS):
    aware = variant is Variant.PROOF_AWARE
    proof = {V: b"pv", U: b"pu"} if aware else {V: b"", U: b""}
    cfg = OptimizerConfig(n, f, FullValue(V, proof[V]), model, variant=variant)
    return Scenario(
        cfg=cfg,
        initial_values=tuple(FullValue(x, proof[x]) for x in values),
        faults=faults,
        schedule=Exhaustive(),
    )


def build_explore_exhaustive(_seed: int) -> list[tuple[str, Scenario]]:
    """A fixed set of searches; the seed does not change it.

    A search's cost depends on its exact inputs, not on a draw, so a fixed
    set keeps the work identical across seeds and lets every outcome set be
    pinned.  The proof-aware search runs without the ample rules (the
    explorer switches them off for that variant); the crash search breaks
    up the ample clusters.
    """
    return [
        (
            "benign-n5-mixed",
            _exhaustive(5, 2, FailureModel.BENIGN, (V, V, V, U, U), (Correct(),) * 5),
        ),
        ("sigma3-proper-f1", bc.sigma3_properly_bounded(1)),
        (
            "proof-aware-n4-silent",
            _exhaustive(
                4,
                1,
                FailureModel.BYZANTINE_EXTERNAL,
                (V, V, U, U),
                (Correct(),) * 3 + (Byzantine(Silent()),),
                Variant.PROOF_AWARE,
            ),
        ),
        (
            "benign-n4-crash1",
            _exhaustive(
                4, 1, FailureModel.BENIGN, (V, V, U, U), (Correct(),) * 3 + (CrashAt(1),)
            ),
        ),
    ]


def outcome_set(report) -> list:
    """A search's outcome set in a canonical JSON-compatible form."""
    return sorted(
        [[list(d) for d in decisions], list(kinds)]
        for decisions, kinds in report.outcomes
    )


def run_explore(searches: list[tuple[str, Scenario]], tracer=None) -> Rep:
    rep = Rep()
    for i, (name, sc) in enumerate(searches):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        report = bc.explore(sc)
        rep.op_s.append(time.perf_counter() - t0)
        rep.events += report.events
        rep.counts["explore.events"] += report.events
        rep.counts["explore.leaves"] += report.leaves
        rep.counts["explore.distinct_outcomes"] += len(report.outcomes)
        error = None
        if report.budget_exceeded:
            error = f"{name}: search budget exceeded"
        elif report.violation_count:
            error = f"{name}: violations {dict(report.violation_kinds)}"
        rep.errors.append(error)
        rep.fingerprints.append(outcome_set(report))
    return rep


# --- record-replay ----------------------------------------------------------

RECORD_RUNS = 40
RECORD_BASES = ("floodset", "phase_king", "eig", "oracle")
# Byzantine nodes are Silent on the concrete bases and may equivocate only
# on the oracle: a concrete base seeds its scrambling Byzantine behaviour
# from the Seeded schedule's seed, and a Scripted replay of the same run
# seeds it from 0, so such runs do not replay byte for byte.
RECORD_FAULTS = {
    "floodset": (_crash_start, _crash_mid),
    "phase_king": (_silent, _crash_start, _crash_mid),
    "eig": (_silent,),
    "oracle": (_equivocate, _silent, _crash_mid),
}


def build_record_replay(seed: int) -> list[Scenario]:
    """Seeded runs at n=10..17 over the three concrete bases and the oracle.

    The base, the size and the fault kinds rotate rather than being drawn,
    because a run's cost depends mostly on them, so every seed does the
    same mix of work; the seed places values and faults, times crashes and
    picks the schedules.
    """
    rng = random.Random(seed)
    out = []
    for i in range(RECORD_RUNS):
        base = RECORD_BASES[i % len(RECORD_BASES)]
        turn = i // len(RECORD_BASES)
        n = 10 + turn % 8
        if base == "eig":
            n, f, model = 10, 3, FailureModel.BYZANTINE_EXTERNAL
        elif base == "floodset":
            f, model = (n - 1) // 2, FailureModel.BENIGN
        else:
            f, model = (n - 1) // 4, FailureModel.BYZANTINE_CLASSICAL
        cfg = OptimizerConfig(n, f, FullValue(V), model, binary_domain=base == "eig")
        kinds = RECORD_FAULTS[base]
        makers = [kinds[(turn + j) % len(kinds)] for j in range(max(1, f // 2))]
        out.append(
            Scenario(
                cfg=cfg,
                initial_values=_inputs(rng, n, round(0.6 * n), proofs=False),
                faults=_faulted(rng, n, makers),
                schedule=Seeded(rng.getrandbits(48)),
                base=base,
                name=f"record-{base}",
            )
        )
    return out


def run_record_replay(scenarios: list[Scenario], tracer=None) -> Rep:
    """Record, summarize, round-trip the scenario file, replay under the
    recorded script and compare; then verify the pinned goldens once.  Op
    time is one whole record-replay cycle."""
    rep = Rep()
    for i, sc in enumerate(scenarios):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            trace = bc.run(sc)
            text = trace.serialize()
            summary = harness.summarize(sc, trace)
            doc = harness.serialize_scenario(sc)
            again = harness.serialize_scenario(harness.parse_scenario(doc))
            replay = bc.run(dataclasses.replace(sc, schedule=Scripted(tuple(trace.script))))
            replay_text = replay.serialize()
        except bc.ProtocolError as e:
            rep.errors.append(f"{type(e).__name__}: {e}")
            rep.fingerprints.append(None)
            continue
        rep.op_s.append(time.perf_counter() - t0)
        rep.events += len(trace.script) + len(replay.script)
        rep.add_traffic(trace)
        error = check_run(sc, trace)
        if error is None and doc != again:
            error = "scenario document changed in a serialize/parse round trip"
        if error is None and _body(text) != _body(replay_text):
            error = "scripted replay differs from the recorded run"
        if error is None and set(summary["decisions"]) != {str(n) for n in trace.decisions}:
            error = "summary decisions differ from the trace"
        rep.errors.append(error)
        rep.fingerprints.append(hashlib.blake2b(text.encode(), digest_size=6).hexdigest())
    if tracer is not None:
        tracer.run_id = len(scenarios)
    for name, ok, detail in harness.verify_goldens(str(GOLDENS)):
        rep.errors.append(None if ok else f"golden {name}: {detail}")
        rep.fingerprints.append(ok)
    return rep


# --- registry and references -------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    seeded: bool   # True when the fingerprints depend on the seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("seeded-large", build_seeded_large, run_seeded, True),
        Workload("campaign-small", build_campaign_small, run_seeded, True),
        Workload("explore-exhaustive", build_explore_exhaustive, run_explore, False),
        Workload("record-replay", build_record_replay, run_record_replay, True),
    )
}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_fingerprints(reference: dict, workload: str, seed: int) -> list | None:
    """The pinned fingerprints that apply to this workload and seed."""
    pinned = reference["fingerprints"].get(workload)
    if pinned is None:
        return None
    if WORKLOADS[workload].seeded and seed != reference["seed"]:
        return None
    return pinned
