"""Deterministic discrete-event network simulator with adversary control.

The simulator owns delivery order, crash timing, Byzantine emissions and the
base-consensus outcome; the protocol state machines own everything else.
Messages travel in envelopes whose sender field is stamped by the simulator
(oral-messages integrity: impersonation attempts raise, payloads are frozen).

Scheduling modes:
  Seeded     one pseudo-random interleaving per seed, reproducible
  Scripted   an explicit choice sequence; unmatched events run FIFO, and a
             fully recorded script replays a run byte-by-byte
  Exhaustive all interleavings, driven by the explorer

Every run ends with an audit: one base proposal and one decision per correct
node at most, agreement, and the failure model's validity property.  Breaches
land in Trace.violations rather than raising, so adversarial searches can
count them.
"""

from __future__ import annotations

import os
import json
import random
from dataclasses import dataclass, field
from typing import Container, Sequence, Union

from .base import (
    BaseInstance,
    byz_scramble,
    byz_silent,
    flavor_for,
    run_eig,
    run_floodset,
    run_phase_king,
)
from .core import (
    ConfigError,
    ConsistencyViolation,
    FailureModel,
    FullValue,
    ImpersonationAttempt,
    MsgKind,
    NodeId,
    NoLegalValue,
    NonQuiescence,
    OptimizerConfig,
    ScenarioInvalid,
    ValidityPredicate,
    Variant,
    table_validity,
    validate_config,
)
from .optimizer import (
    Broadcast,
    Decide,
    OptimizerNode,
    Phase,
    ProposeToBase,
    SendTo,
)
from .proof_aware import ProofAwareNode

DEFAULT_EVENT_BUDGET = 1_000_000


def event_budget() -> int:
    """SIM_EVENT_BUDGET as a positive integer, or the default when unset."""
    raw = os.environ.get("SIM_EVENT_BUDGET", "")
    if not raw:
        return DEFAULT_EVENT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ConfigError(
            f"SIM_EVENT_BUDGET must be a positive integer, got {raw!r}"
        )
    return budget


# --- faults and strategies --------------------------------------------------

@dataclass(frozen=True)
class Correct:
    pass


@dataclass(frozen=True)
class CrashAt:
    """Crash fault.  at_event=0 means the node never starts; otherwise the
    crash becomes schedulable at trace index at_event in seeded runs, wherever
    the script places it in scripted runs, and anywhere in exploration."""

    at_event: int = 0


@dataclass(frozen=True)
class Silent:
    pass


@dataclass(frozen=True)
class Equivocate:
    """Send val_a to targets_a and val_b to everyone else, then go quiet."""

    val_a: bytes
    val_b: bytes
    targets_a: frozenset[NodeId] = frozenset()


@dataclass(frozen=True)
class MimicHonest:
    """Run the honest protocol, but with an adversary-chosen value."""

    value: FullValue


@dataclass(frozen=True)
class ArbitraryScript:
    """Emit an explicit list of (src, dst, kind, val, proof) at start."""

    sends: tuple[tuple[NodeId, NodeId, MsgKind, bytes, bytes], ...]


Strategy = Union[Silent, Equivocate, MimicHonest, ArbitraryScript]


@dataclass(frozen=True)
class Byzantine:
    strategy: Strategy


Fault = Union[Correct, CrashAt, Byzantine]


def correct_live(faults: Sequence[Fault], crashed: Container[NodeId]) -> list[NodeId]:
    """Correct and live nodes: neither Byzantine nor crashed.  Each runs a
    machine; only never-started crashers and non-mimicking Byzantines lack one."""
    return [
        i
        for i, fl in enumerate(faults)
        if not isinstance(fl, Byzantine) and i not in crashed
    ]


def byzantine_emit(
    strategy: Strategy, node: NodeId, n: int
) -> list[tuple[NodeId, NodeId, MsgKind, bytes, bytes]]:
    """First-round emissions for a non-mimicking Byzantine node.

    Every emission must carry the emitting node's true id; a scripted attempt
    to write someone else's id raises ImpersonationAttempt.
    """
    if isinstance(strategy, Silent):
        return []
    if isinstance(strategy, Equivocate):
        out = []
        for dst in range(n):
            if dst == node:
                continue
            val = strategy.val_a if dst in strategy.targets_a else strategy.val_b
            out.append((node, dst, MsgKind.PROPOSAL, val, b""))
        return out
    if isinstance(strategy, ArbitraryScript):
        for send in strategy.sends:
            if send[0] != node:
                raise ImpersonationAttempt(
                    f"node {node} tried to emit as node {send[0]}"
                )
            if not 0 <= send[1] < n or send[1] == node:
                raise ScenarioInvalid(f"bad destination in scripted send {send!r}")
            if not send[3]:
                raise ScenarioInvalid(f"empty payload in scripted send {send!r}")
        return list(strategy.sends)
    raise ScenarioInvalid(f"strategy {strategy!r} has no start emission")


# --- schedules and scenarios ------------------------------------------------

@dataclass(frozen=True)
class Seeded:
    seed: int


@dataclass(frozen=True)
class Scripted:
    steps: tuple[tuple, ...] = ()


@dataclass(frozen=True)
class Exhaustive:
    max_leaves: int = 200_000
    max_events: int = 5_000_000


Schedule = Union[Seeded, Scripted, Exhaustive]


@dataclass
class Scenario:
    cfg: OptimizerConfig
    initial_values: tuple[FullValue, ...]
    faults: tuple[Fault, ...]
    schedule: Schedule
    validity: dict[bytes, bool] = field(default_factory=dict)
    validity_default: bool = True
    base: str = "oracle"   # oracle | floodset | phase_king | eig
    name: str = ""

    def predicate(self) -> ValidityPredicate:
        return table_validity(self.validity, self.validity_default)


def validate_scenario(sc: Scenario) -> Scenario:
    cfg = validate_config(sc.cfg)
    if len(sc.initial_values) != cfg.n or len(sc.faults) != cfg.n:
        raise ScenarioInvalid("need one initial value and one fault entry per node")
    byz = [i for i, fl in enumerate(sc.faults) if isinstance(fl, Byzantine)]
    crash = [i for i, fl in enumerate(sc.faults) if isinstance(fl, CrashAt)]
    if byz and cfg.model is FailureModel.BENIGN:
        raise ScenarioInvalid("Byzantine faults under the benign model")
    if not cfg.straw_man and len(byz) + len(crash) > cfg.f:
        raise ScenarioInvalid(
            f"{len(byz) + len(crash)} actual faults exceed f={cfg.f}"
        )
    if cfg.variant is Variant.PROOF_OBLIVIOUS:
        if any(fv.proof for fv in sc.initial_values) or cfg.preferred.proof:
            raise ScenarioInvalid("proofs present in a proof-oblivious scenario")
    if cfg.sync_timeout is not None and crash:
        raise ScenarioInvalid("crash faults unsupported in the timeout variant")
    if sc.base != "oracle":
        wanted = {
            FailureModel.BENIGN: "floodset",
            FailureModel.BYZANTINE_CLASSICAL: "phase_king",
            FailureModel.BYZANTINE_EXTERNAL: "eig",
        }[cfg.model]
        if sc.base != wanted:
            raise ScenarioInvalid(
                f"base {sc.base!r} does not fit model {cfg.model.value}"
            )
        if isinstance(sc.schedule, Exhaustive):
            raise ScenarioInvalid("exhaustive exploration requires the oracle base")
        if sc.base == "eig" and not cfg.binary_domain:
            raise ScenarioInvalid("eig base requires binary_domain")
    return sc


# --- envelopes, events, traces ----------------------------------------------

@dataclass(frozen=True)
class Envelope:
    seq: int
    src: NodeId
    dst: NodeId
    kind: MsgKind
    val: bytes
    proof: bytes
    # Cached kind.value: enum attribute access is a descriptor call, and the
    # schedule enumerator reads this once per pending envelope per step.
    kindval: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        object.__setattr__(self, "kindval", self.kind.value)


@dataclass(frozen=True)
class DecisionRecord:
    node: NodeId
    value: bytes
    path: object   # optimizer.DecisionPath
    event_index: int


@dataclass
class Trace:
    meta: dict
    events: list[dict]
    decisions: dict[NodeId, DecisionRecord]
    counters: dict[str, dict[str, int]]
    violations: list[tuple[str, str]]
    script: list[tuple]
    final_phases: dict[NodeId, str]

    def serialize(self) -> str:
        lines = [json.dumps({"meta": self.meta}, sort_keys=True)]
        for ev in self.events:
            lines.append(json.dumps(ev))
        footer = {
            "decisions": {
                str(n): {
                    "value": r.value.hex(),
                    "path": r.path.value,
                    "event_index": r.event_index,
                }
                for n, r in sorted(self.decisions.items())
            },
            "counters": self.counters,
            "violations": [list(v) for v in self.violations],
            "final_phases": {str(n): p for n, p in sorted(self.final_phases.items())},
        }
        lines.append(json.dumps({"footer": footer}, sort_keys=True))
        return "\n".join(lines) + "\n"

    @property
    def crashed(self) -> set[NodeId]:
        return {n for n, p in self.final_phases.items() if p == "crashed"}


# --- the runner -------------------------------------------------------------

class Runner:
    """Executes one scenario.  The public entry point is run()."""

    def __init__(self, scenario: Scenario, record_trace: bool = True):
        validate_scenario(scenario)
        self.sc = scenario
        self.cfg = scenario.cfg
        self.valid = scenario.predicate()
        self.record_trace = record_trace
        self.budget = event_budget()

        n = self.cfg.n
        self.machines: list[object | None] = [None] * n
        self.is_byz: set[NodeId] = set()
        self.crashed: set[NodeId] = set()
        self.crash_after: dict[NodeId, int] = {}
        for i, fl in enumerate(scenario.faults):
            if isinstance(fl, Byzantine):
                self.is_byz.add(i)
        # Nodes that run a protocol machine and therefore receive messages:
        # everyone except never-started crashers and non-mimicking Byzantines.
        self.machine_nodes: frozenset[NodeId] = frozenset(
            i
            for i, fl in enumerate(scenario.faults)
            if not (isinstance(fl, CrashAt) and fl.at_event == 0)
            and not (
                isinstance(fl, Byzantine) and not isinstance(fl.strategy, MimicHonest)
            )
        )

        self.pending: list[tuple] = []
        self.seq = 0
        self.event_index = 0
        self.base = BaseInstance()
        self.flavor = flavor_for(self.cfg)
        self.base_active = False
        self.byz_activator: NodeId | None = None
        self.byz_activation_val: bytes | None = None
        self.observed: set[NodeId] = set()
        self.pick_enabled = False
        self.pick_done = False
        self.base_legal: list[bytes] = []
        self.base_decision: bytes | None = None
        self.base_decisions: dict[NodeId, bytes] = {}
        self.counters = {
            k.value: {"msgs": 0, "val_bytes": 0, "proof_bytes": 0} for k in MsgKind
        }
        self.propose_count: dict[NodeId, int] = {i: 0 for i in range(n)}
        self.decide_count: dict[NodeId, int] = {i: 0 for i in range(n)}
        self.decisions: dict[NodeId, DecisionRecord] = {}
        self.violations: list[tuple[str, str]] = []
        self.events: list[dict] = []
        self.applied: list[tuple] = []
        self._started = False
        self._live_cache: list[NodeId] | None = None

    # -- construction of machines and initial emissions ----------------------

    def _machine_for(self, node: NodeId, value: FullValue):
        cls = (
            ProofAwareNode
            if self.cfg.variant is Variant.PROOF_AWARE
            else OptimizerNode
        )
        return cls(self.cfg, node, value, self.valid)

    def start_batch(self) -> None:
        assert not self._started
        self._started = True
        for node in range(self.cfg.n):
            fl = self.sc.faults[node]
            if isinstance(fl, CrashAt) and fl.at_event == 0:
                self.crashed.add(node)
                self._trace_event({"ev": "crash_start", "node": node})
                continue
            if isinstance(fl, CrashAt):
                self.crash_after[node] = fl.at_event
                self.pending.append(("crash", node))
            if isinstance(fl, Byzantine) and not isinstance(fl.strategy, MimicHonest):
                sends = byzantine_emit(fl.strategy, node, self.cfg.n)
                rec = {"ev": "start", "node": node, "actions": []}
                for src, dst, kind, val, proof in sends:
                    env = self._emit(src, dst, kind, val, proof)
                    rec["actions"].append(_fmt_send(dst, kind, val, proof, env.seq))
                self._trace_event(rec)
                continue
            value = (
                fl.strategy.value
                if isinstance(fl, Byzantine)
                else self.sc.initial_values[node]
            )
            machine = self._machine_for(node, value)
            self.machines[node] = machine
            rec = {"ev": "start", "node": node, "actions": []}
            self._apply_actions(node, machine.start(), rec)
            self._trace_event(rec)
        if self.cfg.sync_timeout is not None:
            for node in range(self.cfg.n):
                if self.machines[node] is not None and node not in self.is_byz:
                    self.pending.append(("timer", node))
        self._post_event()

    def _emit(
        self, src: NodeId, dst: NodeId, kind: MsgKind, val: bytes, proof: bytes
    ) -> Envelope:
        env = Envelope(self.seq, src, dst, kind, val, proof)
        self.seq += 1
        c = self.counters[kind.value]
        c["msgs"] += 1
        c["val_bytes"] += len(val)
        c["proof_bytes"] += len(proof)
        if dst not in self.crashed and dst in self.machine_nodes:
            self.pending.append(("deliver", env))
        return env

    def _apply_actions(self, node: NodeId, actions: list, rec: dict) -> None:
        for a in actions:
            if isinstance(a, Broadcast):
                for dst in range(self.cfg.n):
                    if dst == node:
                        continue
                    env = self._emit(node, dst, a.kind, a.val, a.proof)
                    rec["actions"].append(
                        _fmt_send(dst, a.kind, a.val, a.proof, env.seq)
                    )
            elif isinstance(a, SendTo):
                env = self._emit(node, a.to, a.kind, a.val, a.proof)
                rec["actions"].append(_fmt_send(a.to, a.kind, a.val, a.proof, env.seq))
            elif isinstance(a, ProposeToBase):
                self.propose_count[node] += 1
                if node not in self.is_byz:
                    self.base.propose(node, a.value)
                elif not self.base_active:
                    self.byz_activator = node
                    self.byz_activation_val = a.value.val
                self.base_active = True
                rec["actions"].append(
                    f"propose {a.value.val.hex()} {a.value.proof.hex()}"
                )
            elif isinstance(a, Decide):
                self.decide_count[node] += 1
                if self.decide_count[node] > 1:
                    self.violations.append(
                        ("decide-once", f"node {node} decided more than once")
                    )
                self.decisions[node] = DecisionRecord(
                    node, a.value, a.path, self.event_index
                )
                rec["actions"].append(f"decide {a.path.value} {a.value.hex()}")
            else:
                raise TypeError(f"unknown action {a!r}")

    # -- bookkeeping after each executed event -------------------------------

    def _correct_live(self) -> list[NodeId]:
        if self._live_cache is None:
            self._live_cache = correct_live(self.sc.faults, self.crashed)
        return self._live_cache

    def _base_traffic_source(self) -> tuple[NodeId, bytes] | None:
        """A live participant whose instance traffic a bystander could see."""
        for p in sorted(self.base.proposals):
            if p not in self.crashed:
                return p, self.base.proposals[p].val
        if self.byz_activator is not None:
            return self.byz_activator, self.byz_activation_val
        return None

    def _post_event(self) -> None:
        if not self.base_active or self.pick_done:
            return
        src = self._base_traffic_source()
        if src is not None:
            for node in self._correct_live():
                m = self.machines[node]
                if (
                    m.phase is Phase.FAST_DECIDED
                    and not m.joined_base
                    and node not in self.observed
                ):
                    self.observed.add(node)
                    self._emit(src[0], node, MsgKind.BASE, src[1], b"")
        live = self._correct_live()
        if not live:
            # Nobody is left to referee the instance — and nobody is left
            # waiting on a decision either.
            self.pick_enabled = False
            self.pick_done = True
        elif all(p in self.base.proposals for p in live):
            crashed_proposers = [p for p in self.base.proposals if p in self.crashed]
            newly = not self.pick_enabled
            try:
                # Recomputed after every event: a crash can shrink the legal
                # set (a dead proposer no longer blocks unanimity).
                self.base_legal = self.base.legal_decisions(
                    self.flavor, live, crashed_proposers, self.valid
                )
                self.pick_enabled = True
            except NoLegalValue as e:
                self.violations.append(("no-legal-value", str(e)))
                self.pick_enabled = False
                self.pick_done = True
                return
            if newly and self.sc.base != "oracle":
                self._run_concrete_base()

    def _run_concrete_base(self) -> None:
        """Settle the instance with a real sync-round protocol, not a pick."""
        self.pick_enabled = False
        self.pick_done = True
        proposals = {
            p: fv.val
            for p, fv in self.base.proposals.items()
            if p not in self.crashed
        }
        pool = sorted(set(proposals.values()))
        # Seeded from the choices applied so far, which a scripted replay
        # applies too, so a recorded run replays under any schedule type.
        rng = random.Random(repr(self.applied))
        byz_live = sorted(self.is_byz - self.crashed)
        if self.sc.base == "floodset":
            decisions, msgs = run_floodset(self.cfg.n, self.cfg.f, proposals)
        else:
            behaviors = {}
            for b in byz_live:
                strat = self.sc.faults[b].strategy
                behaviors[b] = (
                    byz_silent if isinstance(strat, Silent) else byz_scramble(pool, rng)
                )
            if self.sc.base == "phase_king":
                decisions, msgs = run_phase_king(
                    self.cfg.n, self.cfg.f, proposals, behaviors
                )
            else:
                decisions, msgs = run_eig(self.cfg.n, self.cfg.f, proposals, behaviors)
        rounds = max((m[0] for m in msgs), default=0)
        c = self.counters[MsgKind.BASE.value]
        for _rnd, _src, _dst, nbytes in msgs:
            c["msgs"] += 1
            c["val_bytes"] += nbytes
        self._trace_event(
            {
                "ev": "sync_base",
                "protocol": self.sc.base,
                "rounds": rounds,
                "messages": len(msgs),
            }
        )
        for node in sorted(proposals):
            if node in decisions:
                self.base_decisions[node] = decisions[node]
                self.pending.append(("decision", node))

    # -- choice enumeration and application ----------------------------------

    def enabled_choices(self, mode: str) -> list[tuple]:
        """Describe every schedulable step as a script-compatible tuple."""
        out: list[tuple] = []
        occ: dict[tuple, int] = {}
        only_gated_crashes = True
        for ev in self.pending:
            if ev[0] == "deliver":
                env: Envelope = ev[1]
                key = (env.src, env.dst, env.kindval)
                k = occ.get(key, 0)
                occ[key] = k + 1
                out.append(("deliver", env.src, env.dst, env.kindval, k))
                if env.src in self.crashed:
                    out.append(("drop", env.src, env.dst, env.kindval, k))
                only_gated_crashes = False
            elif ev[0] == "decision":
                out.append(("decision", ev[1]))
                only_gated_crashes = False
            elif ev[0] == "timer":
                if not any(
                    e[0] == "deliver"
                    and e[1].dst == ev[1]
                    and e[1].kind is MsgKind.PROPOSAL
                    for e in self.pending
                ):
                    out.append(("timer", ev[1]))
                    only_gated_crashes = False
            elif ev[0] == "crash":
                gated = (
                    mode == "seeded"
                    and self.event_index < self.crash_after.get(ev[1], 0)
                )
                if not gated:
                    out.append(("crash", ev[1]))
                    only_gated_crashes = False
        if self.pick_enabled and not self.pick_done:
            for v in self.base_legal:
                out.append(("pick", v.hex()))
            only_gated_crashes = False
        if mode == "seeded" and only_gated_crashes:
            # Quiescent except for future crashes: let them fire late.
            for ev in self.pending:
                if ev[0] == "crash":
                    out.append(("crash", ev[1]))
        return out

    def apply_choice(self, choice: tuple) -> None:
        tag = choice[0]
        self.applied.append(choice)
        if tag == "pick":
            value = bytes.fromhex(choice[1])
            self.base.decide(value, self.base_legal)
            self.pick_done = True
            self.pick_enabled = False
            self.base_decision = value
            self._trace_event(
                {
                    "ev": "pick",
                    "val": choice[1],
                    "legal": [v.hex() for v in self.base_legal],
                }
            )
            for node in sorted(self.base.proposals):
                if node not in self.crashed:
                    self.pending.append(("decision", node))
            self.event_index += 1
            self._post_event()
            return
        ev = self._take(choice)
        if tag == "deliver":
            self._dispatch_deliver(ev[1])
        elif tag == "drop":
            env = ev[1]
            if env.kind is MsgKind.BASE and env.dst not in self.crashed:
                # The wakeup was lost in flight; rearm so another live
                # participant's traffic can reach the bystander.
                self.observed.discard(env.dst)
            self._trace_event(
                {
                    "ev": "drop",
                    "seq": env.seq,
                    "src": env.src,
                    "dst": env.dst,
                    "kind": env.kind.value,
                }
            )
        elif tag == "decision":
            self._dispatch_decision(ev[1])
        elif tag == "timer":
            self._dispatch_timer(ev[1])
        elif tag == "crash":
            self._dispatch_crash(ev[1])
        self.event_index += 1
        self._post_event()

    def _take(self, choice: tuple) -> tuple:
        tag = choice[0]
        if tag in ("deliver", "drop"):
            _, src, dst, kind, k = choice
            seen = 0
            for i, ev in enumerate(self.pending):
                if ev[0] != "deliver":
                    continue
                env = ev[1]
                if (env.src, env.dst, env.kindval) == (src, dst, kind):
                    if seen == k:
                        if tag == "drop" and src not in self.crashed:
                            raise ScenarioInvalid(
                                f"drop of live sender's envelope {choice!r}"
                            )
                        return self.pending.pop(i)
                    seen += 1
            raise ScenarioInvalid(f"no pending envelope for {choice!r}")
        for i, ev in enumerate(self.pending):
            if ev[0] == tag and ev[1] == choice[1]:
                return self.pending.pop(i)
        raise ScenarioInvalid(f"no pending event for {choice!r}")

    # -- dispatchers ---------------------------------------------------------

    def _dispatch_deliver(self, env: Envelope) -> None:
        rec = {
            "ev": "deliver",
            "seq": env.seq,
            "src": env.src,
            "dst": env.dst,
            "kind": env.kind.value,
            "val": env.val.hex(),
            "proof": env.proof.hex(),
            "actions": [],
        }
        m = self.machines[env.dst]
        if env.kind is MsgKind.PROPOSAL:
            actions = m.on_proposal(env.src, env.val)
        elif env.kind is MsgKind.FULL:
            if isinstance(m, ProofAwareNode) and env.val:
                actions = m.on_full(env.src, FullValue(env.val, env.proof))
            else:
                actions = []   # proof-oblivious machines ignore stray fullvals
        else:
            actions = m.on_base_message_observed()
        self._apply_actions(env.dst, actions, rec)
        self._trace_event(rec)

    def _dispatch_decision(self, node: NodeId) -> None:
        value = self.base_decisions.get(node, self.base_decision)
        rec = {"ev": "decision", "node": node, "val": value.hex(), "actions": []}
        try:
            actions = self.machines[node].on_base_decision(value)
        except ConsistencyViolation as e:
            self.violations.append(("consistency", str(e)))
            actions = []
        self._apply_actions(node, actions, rec)
        self._trace_event(rec)

    def _dispatch_timer(self, node: NodeId) -> None:
        rec = {"ev": "timer", "node": node, "actions": []}
        self._apply_actions(node, self.machines[node].on_timeout(), rec)
        self._trace_event(rec)

    def _dispatch_crash(self, node: NodeId) -> None:
        self.crashed.add(node)
        self._live_cache = None
        self.pending = [
            ev
            for ev in self.pending
            if not (ev[0] == "deliver" and ev[1].dst == node)
            and not (ev[0] in ("decision", "timer") and ev[1] == node)
        ]
        self._trace_event({"ev": "crash", "node": node})

    def _trace_event(self, rec: dict) -> None:
        if self.record_trace:
            self.events.append({"i": self.event_index, **rec})

    # -- scheduling loops ----------------------------------------------------

    def run(self) -> Trace:
        self.start_batch()
        sched = self.sc.schedule
        if isinstance(sched, Seeded):
            self._run_seeded(sched.seed)
        elif isinstance(sched, Scripted):
            self._run_scripted([tuple(s) for s in sched.steps])
        else:
            raise ScenarioInvalid("exhaustive schedules run through explore()")
        self._audit()
        return self.trace()

    def _run_seeded(self, seed: int) -> None:
        rng = random.Random(seed)
        while True:
            choices = self.enabled_choices("seeded")
            if not choices:
                break
            self._check_budget()
            self.apply_choice(choices[rng.randrange(len(choices))])

    def _run_scripted(self, script: list[tuple]) -> None:
        while True:
            choices = self.enabled_choices("scripted")
            if not choices:
                if script:
                    raise ScenarioInvalid(
                        f"script has {len(script)} unconsumed steps, "
                        f"first {script[0]!r}"
                    )
                break
            self._check_budget()
            if script:
                head = _normalize_step(script[0])
                if head in choices:
                    script.pop(0)
                    self.apply_choice(head)
                    continue
                free = [
                    c
                    for c in choices
                    if not self._fifo_skipped(c)
                    and not any(_same_key(c, _normalize_step(s)) for s in script)
                ]
                if not free:
                    raise ScenarioInvalid(
                        f"script deadlock: step {script[0]!r} never enabled"
                    )
                self.apply_choice(free[0])
                continue
            free = [c for c in choices if not self._fifo_skipped(c)]
            self.apply_choice(free[0] if free else choices[0])

    def _fifo_skipped(self, choice: tuple) -> bool:
        """Steps the FIFO tail never takes on its own: message loss, and
        crashes whose seeded firing index is still in the future."""
        if choice[0] == "drop":
            return True
        if choice[0] == "crash":
            return self.event_index < self.crash_after.get(choice[1], 0)
        return False

    def _check_budget(self) -> None:
        if self.event_index >= self.budget:
            raise NonQuiescence(
                f"event budget {self.budget} exhausted before quiescence"
            )

    # -- audit and trace -----------------------------------------------------

    def _audit(self) -> None:
        live = self._correct_live()
        decided: dict[NodeId, bytes] = {}
        for node in live:
            rec = self.decisions.get(node)
            if rec is None:
                self.violations.append(("termination", f"node {node} never decided"))
            else:
                decided[node] = rec.value
        if len(set(decided.values())) > 1:
            detail = ", ".join(f"{n}:{v.hex()}" for n, v in sorted(decided.items()))
            self.violations.append(("agreement", detail))
        for node in live:
            if self.propose_count[node] > 1:
                self.violations.append(
                    (
                        "join-once",
                        f"node {node} proposed {self.propose_count[node]} times",
                    )
                )
        correct_ids = [
            i
            for i in range(self.cfg.n)
            if i not in self.is_byz and not isinstance(self.sc.faults[i], CrashAt)
        ]
        initials = {i: self.sc.initial_values[i].val for i in range(self.cfg.n)}
        if self.cfg.model is FailureModel.BENIGN:
            proposed_somewhere = set(initials.values())
            for node, v in decided.items():
                if v not in proposed_somewhere:
                    self.violations.append(
                        ("benign-validity", f"node {node} decided unproposed {v.hex()}")
                    )
        elif self.cfg.model is FailureModel.BYZANTINE_CLASSICAL:
            correct_vals = {initials[i] for i in correct_ids}
            if len(correct_vals) == 1:
                only = next(iter(correct_vals))
                for node, v in decided.items():
                    if v != only:
                        self.violations.append(
                            (
                                "classical-validity",
                                f"all correct proposed {only.hex()} but node "
                                f"{node} decided {v.hex()}",
                            )
                        )
        else:
            assumption_holds = all(
                self.valid(self.sc.initial_values[i]) for i in correct_ids
            )
            if assumption_holds:
                for node, v in decided.items():
                    if not self.valid(FullValue(v)):
                        self.violations.append(
                            (
                                "external-validity",
                                f"node {node} decided invalid {v.hex()}",
                            )
                        )

    def trace(self) -> Trace:
        sched = self.sc.schedule
        meta = {
            "scenario": self.sc.name,
            "n": self.cfg.n,
            "f": self.cfg.f,
            "model": self.cfg.model.value,
            "variant": self.cfg.variant.value,
            "preferred": self.cfg.preferred.val.hex(),
            "binary_domain": self.cfg.binary_domain,
            "straw_man": self.cfg.straw_man,
            "base": self.sc.base,
            "schedule": type(sched).__name__.lower(),
            "seed": sched.seed if isinstance(sched, Seeded) else None,
        }
        finals = {
            i: (
                "crashed"
                if i in self.crashed
                else self.machines[i].phase.value
                if self.machines[i] is not None
                else "byzantine"
            )
            for i in range(self.cfg.n)
        }
        return Trace(
            meta=meta,
            events=self.events,
            decisions=dict(self.decisions),
            counters=self.counters,
            violations=list(self.violations),
            script=list(self.applied),
            final_phases=finals,
        )

    # -- cloning for the explorer --------------------------------------------

    def clone(self) -> "Runner":
        """An untraced copy for the explorer: immutable state is shared and
        every container a run mutates is copied."""
        dup = Runner.__new__(Runner)
        dup.__dict__.update(self.__dict__)
        dup.record_trace = False
        dup.events = []
        dup.machines = [m.copy() if m is not None else None for m in self.machines]
        dup.crashed = set(self.crashed)
        dup.pending = list(self.pending)
        dup.base = BaseInstance()
        dup.base.proposals = dict(self.base.proposals)
        dup.base.decided = self.base.decided
        dup.observed = set(self.observed)
        dup.base_decisions = dict(self.base_decisions)
        dup.counters = {k: dict(v) for k, v in self.counters.items()}
        dup.propose_count = dict(self.propose_count)
        dup.decide_count = dict(self.decide_count)
        dup.decisions = dict(self.decisions)
        dup.violations = list(self.violations)
        dup.applied = list(self.applied)
        return dup


def run(scenario: Scenario, record_trace: bool = True) -> Trace:
    return Runner(scenario, record_trace=record_trace).run()


# --- helpers ----------------------------------------------------------------

def _fmt_send(dst: NodeId, kind: MsgKind, val: bytes, proof: bytes, seq: int) -> str:
    return f"send {dst} {kind.value} {val.hex()} {proof.hex()} #{seq}"


def _normalize_step(step) -> tuple:
    step = tuple(step)
    if step[0] in ("deliver", "drop") and len(step) == 4:
        return step + (0,)
    return step


def _same_key(choice: tuple, step: tuple) -> bool:
    if choice[0] in ("deliver", "drop") and step[0] in ("deliver", "drop"):
        return choice[1:4] == step[1:4]
    if choice[0] == "pick" and step[0] == "pick":
        return True
    return choice[0] == step[0] and choice[1:] == step[1:]
