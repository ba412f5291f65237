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

Every run is audited: a correct node's second base proposal and any node's
second decision are recorded as they happen, and the run ends with checks of
termination, agreement and the failure model's validity property.  Breaches
land in Trace.violations rather than raising, so adversarial searches can
count them.
"""

from __future__ import annotations

import os
import json
import math
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Container, NamedTuple, Union

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
    BOUNDS,
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
    check_bound,
    table_validity,
    validate_config,
)
from .optimizer import (
    Broadcast,
    Decide,
    DecisionPath,
    OptimizerNode,
    Phase,
    ProposeToBase,
    SendTo,
)
from .proof_aware import ProofAwareNode

DEFAULT_EVENT_BUDGET = 1_000_000
_KINDS = tuple(k.value for k in MsgKind)
_PROPOSAL = MsgKind.PROPOSAL.value
_FULL = MsgKind.FULL.value
_BASE = MsgKind.BASE.value
_PICK = -1   # the slot Runner._slot_of gives an open pick


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
    """The nodes the audit holds to the protocol: neither Byzantine nor
    crashed (yet).  Each runs a machine, as do MimicHonest Byzantines and
    crashers before their crash."""
    return [
        i
        for i, fl in enumerate(faults)
        if not isinstance(fl, Byzantine) and i not in crashed
    ]


def byzantine_emit(
    strategy: Strategy, node: NodeId, n: int
) -> list[tuple[NodeId, NodeId, MsgKind, bytes, bytes]]:
    """First-round emissions for a non-mimicking Byzantine node.  A
    scripted node's sends were checked when the scenario was validated."""
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
    base: str = "oracle"   # the name of a base row in BOUNDS
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
    for i in byz:
        strategy = sc.faults[i].strategy
        if isinstance(strategy, Equivocate):
            stray = sorted(set(strategy.targets_a) - set(range(cfg.n)))
            if stray:
                raise ScenarioInvalid(f"node {i} equivocates to {stray}: no ids in 0..{cfg.n - 1}")
        elif isinstance(strategy, ArbitraryScript):
            # Every emission carries the emitting node's true id.
            for send in strategy.sends:
                if send[0] != i:
                    raise ImpersonationAttempt(f"node {i} tried to emit as node {send[0]}")
                if not 0 <= send[1] < cfg.n or send[1] == i:
                    raise ScenarioInvalid(f"bad destination in scripted send {send!r}")
                if not send[3]:
                    raise ScenarioInvalid(f"empty payload in scripted send {send!r}")
    if len(byz) + len(crash) > cfg.f:
        raise ScenarioInvalid(
            f"{len(byz) + len(crash)} actual faults exceed f={cfg.f}"
        )
    if cfg.variant is Variant.PROOF_OBLIVIOUS:
        if any(fv.proof for fv in sc.initial_values) or cfg.preferred.proof:
            raise ScenarioInvalid("proofs present in a proof-oblivious scenario")
    if cfg.sync_timeout is not None and crash:
        raise ScenarioInvalid("crash faults unsupported in the timeout variant")
    if sc.base != "oracle":
        row = BOUNDS.get(sc.base) if isinstance(sc.base, str) else None
        if row is None or row[:2] != ("base", cfg.model):
            raise ScenarioInvalid(f"base {sc.base!r} does not fit model {cfg.model.value}")
        if isinstance(sc.schedule, Exhaustive):
            raise ScenarioInvalid("exhaustive exploration requires the oracle base")
        if sc.base == "eig" and not cfg.binary_domain:
            raise ScenarioInvalid("eig base requires binary_domain")
        leaves = math.perm(cfg.n, cfg.f + 1)   # EIG's relay tree: n(n-1)...(n-f)
        if sc.base == "eig" and leaves > event_budget():
            raise ScenarioInvalid(
                f"eig base at n={cfg.n} f={cfg.f} has {leaves} relay-tree leaves, "
                f"one value each to n-1 nodes in its last round, past the event "
                f"budget {event_budget()}"
            )
        check_bound(sc.base, cfg.n, cfg.f, ScenarioInvalid)
    if isinstance(sc.schedule, Scripted):
        _check_steps(sc.schedule.steps, cfg.n)
    return sc


def _check_steps(steps: Sequence, n: int) -> None:
    """Refuse a step no run could list: an unknown tag or arity, a node id
    outside 0..n-1, a kind no MsgKind has, a k below 0, a pick not in hex."""
    node = lambda x: type(x) is int and 0 <= x < n
    for i, step in enumerate(steps):
        ok = isinstance(step, (tuple, list)) and len(step) > 0
        tag, args = (step[0], step[1:]) if ok else (None, ())
        if tag in ("deliver", "drop"):
            ok = len(args) in (3, 4) and node(args[0]) and node(args[1]) and args[2] in _KINDS
            ok = ok and all(type(k) is int and k >= 0 for k in args[3:])
        elif tag in ("crash", "decision", "timer"):
            ok = len(args) == 1 and node(args[0])
        else:
            ok = tag == "pick" and len(args) == 1 and isinstance(args[0], str)
            ok = ok and re.fullmatch("(?:[0-9a-f]{2})*", args[0]) is not None
        if not ok:
            raise ScenarioInvalid(f"malformed script step {i}: {step!r}")


# --- envelopes, events, traces ----------------------------------------------

class Envelope(NamedTuple):
    seq: int
    src: NodeId
    dst: NodeId
    kind: str   # the MsgKind's wire string, so env[1:4] is the stream key
    val: bytes
    proof: bytes


@dataclass(frozen=True)
class DecisionRecord:
    node: NodeId
    value: bytes
    path: object   # optimizer.DecisionPath
    event_index: int


@dataclass
class Trace:
    scenario: Scenario   # the run's own, written as the first line
    events: list[dict]
    decisions: dict[NodeId, DecisionRecord]
    counters: dict[str, dict[str, int]]
    violations: list[tuple[str, str]]
    script: list[tuple]
    final_phases: dict[NodeId, str]

    def serialize(self) -> str:
        from .harness import scenario_to_obj   # harness imports this module

        lines = [json.dumps({"scenario": scenario_to_obj(self.scenario)}, sort_keys=True)]
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
        # A machine per node that runs the protocol and therefore receives
        # messages: everyone except never-started crashers and non-mimicking
        # Byzantines, whose entries stay None.
        self.machines: list[object | None] = [None] * n
        self.is_byz: set[NodeId] = set()
        self.crashed: set[NodeId] = set()
        self.crash_after: dict[NodeId, int] = {}
        for i, fl in enumerate(scenario.faults):
            if isinstance(fl, Byzantine):
                self.is_byz.add(i)
                if isinstance(fl.strategy, MimicHonest):
                    self.machines[i] = self._machine_for(i, fl.strategy.value)
            elif not (isinstance(fl, CrashAt) and fl.at_event == 0):
                self.machines[i] = self._machine_for(i, scenario.initial_values[i])

        # Pending events by slot, in the order choices list them, and indexes
        # derived from them: the slots of each stream in seq order, keyed by
        # (src, dst, kind) for envelopes and by the event itself for a crash,
        # timer or decision; and, for timers to read, proposals by destination.
        self.pending: dict[int, tuple] = {}
        self._next_slot = 0
        self._slots: dict[tuple, tuple[int, ...]] = {}
        self._proposals_to = [0] * n if self.cfg.sync_timeout is not None else None
        # Seeded runs add each slot's choice count, and the gated crashes'
        # (crash_after, slot), latest first.
        self._tree: _Fenwick | None = None
        self._gates: list[tuple[int, int]] = []
        self.seq = 0
        self.event_index = 0
        self.base = BaseInstance()
        self.flavor = flavor_for(self.cfg)
        # The Byzantine node and value that opened the base instance, when
        # one proposed before any correct node did.
        self.byz_activator: tuple[NodeId, bytes] | None = None
        # Correct live fast-deciders that have neither joined the base nor
        # been sent a wakeup (the bystanders).
        self._unwoken: set[NodeId] = set()
        self.pick_done = False
        self.base_legal: list[bytes] = []
        self.base_decisions: dict[NodeId, bytes] = {}
        self.counters = {
            k.value: {"msgs": 0, "val_bytes": 0, "proof_bytes": 0} for k in MsgKind
        }
        self.decisions: dict[NodeId, DecisionRecord] = {}
        self.violations: list[tuple[str, str]] = []
        self.events: list[dict] = []
        self.applied: list[tuple] = []
        self._started = False
        self._live_cache: list[NodeId] | None = None
        self._legal_sizes: tuple[int, int] | None = None

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
        for node, machine in enumerate(self.machines):
            fl = self.sc.faults[node]
            if isinstance(fl, CrashAt) and fl.at_event == 0:
                self.crashed.add(node)
                self._trace_event({"ev": "crash_start", "node": node})
                continue
            if isinstance(fl, CrashAt):
                self.crash_after[node] = fl.at_event
                self._add(("crash", node))
            rec = {"ev": "start", "node": node, "actions": []} if self.record_trace else None
            if machine is not None:
                self._apply_actions(node, machine.start(), rec)
            else:
                out = rec["actions"] if rec is not None else None
                sends = byzantine_emit(fl.strategy, node, self.cfg.n)
                for (src, kind, val, proof), run in groupby(sends, itemgetter(0, 2, 3, 4)):
                    self._send(src, [s[1] for s in run], kind.value, val, proof, out)
            self._trace_event(rec)
        if self.cfg.sync_timeout is not None:
            for node in range(self.cfg.n):
                if self.machines[node] is not None and node not in self.is_byz:
                    self._add(("timer", node))
        self._post_event()

    def _send(
        self, src: NodeId, dsts: Sequence[NodeId], kind: str, val: bytes, proof: bytes,
        out: list | None,
    ) -> None:
        """Send one message from src to each of dsts, in order: count them,
        queue an envelope for each node that can receive one, and list the
        sends in out when traced."""
        seq, sent = self.seq, len(dsts)
        self.seq += sent
        c = self.counters[kind]
        c["msgs"] += sent
        c["val_bytes"] += sent * len(val)
        c["proof_bytes"] += sent * len(proof)
        machines, crashed, add = self.machines, self.crashed, self._add
        for i, dst in enumerate(dsts, seq):
            if machines[dst] is not None and dst not in crashed:
                add(("deliver", Envelope(i, src, dst, kind, val, proof)))
        if out is not None:
            tail = f" {kind} {val.hex()} {proof.hex()} #"
            out.extend(f"send {dst}{tail}{i}" for i, dst in enumerate(dsts, seq))

    def _apply_actions(self, node: NodeId, actions: list, rec: dict | None) -> None:
        """Carry out a machine's actions, listing them in rec when traced."""
        out = rec["actions"] if rec is not None else None
        for a in actions:
            if isinstance(a, Broadcast):
                others = [*range(node), *range(node + 1, self.cfg.n)]
                self._send(node, others, a.kind.value, a.val, a.proof, out)
            elif isinstance(a, SendTo):
                self._send(node, (a.to,), a.kind.value, a.val, a.proof, out)
            elif isinstance(a, ProposeToBase):
                if node in self.is_byz:
                    if not (self.base.proposals or self.byz_activator):
                        self.byz_activator = (node, a.value.val)
                elif node in self.base.proposals:
                    self.violations.append(
                        ("join-once", f"node {node} proposed more than once")
                    )
                else:
                    self.base.propose(node, a.value)
                self._unwoken.discard(node)
                if out is not None:
                    out.append(f"propose {a.value.val.hex()} {a.value.proof.hex()}")
            elif isinstance(a, Decide):
                if node in self.decisions:
                    self.violations.append(
                        ("decide-once", f"node {node} decided more than once")
                    )
                self.decisions[node] = DecisionRecord(
                    node, a.value, a.path, self.event_index
                )
                if a.path is DecisionPath.FAST and node not in self.is_byz:
                    self._unwoken.add(node)
                if out is not None:
                    out.append(f"decide {a.path.value} {a.value.hex()}")
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
        return self.byz_activator

    def open_picks(self) -> Sequence[bytes]:
        """The values a pick may still decide: the legal set until the base
        instance is settled, nothing before it is computed or after."""
        return () if self.pick_done else self.base_legal

    def _post_event(self) -> None:
        if self.pick_done or not (self.base.proposals or self.byz_activator):
            return
        src = self._base_traffic_source() if self._unwoken else None
        if src is not None:
            # In id order, the order a scan of the nodes would wake them,
            # listed with the event that woke them.
            out = self.events[-1].setdefault("actions", []) if self.record_trace else None
            self._send(src[0], sorted(self._unwoken), _BASE, src[1], b"", out)
            self._unwoken.clear()
        live = self._correct_live()
        # Proposals and crashes only accumulate: equal counts, equal legal set.
        sizes = (len(self.base.proposals), len(self.crashed))
        if sizes != self._legal_sizes and all(p in self.base.proposals for p in live):
            self._legal_sizes = sizes
            crashed_proposers = [p for p in self.base.proposals if p in self.crashed]
            newly = not self.base_legal
            try:
                # A crash can shrink the legal set (a dead proposer no longer
                # blocks unanimity).
                self.base_legal = self.base.legal_decisions(
                    self.flavor, live, crashed_proposers, self.valid
                )
            except NoLegalValue as e:
                self.violations.append(("no-legal-value", str(e)))
                self.pick_done = True
                return
            if newly and self.sc.base != "oracle":
                self._run_concrete_base()

    def _run_concrete_base(self) -> None:
        """Settle the instance with a real sync-round protocol, not a pick."""
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
                self._add(("decision", node))

    # -- choice enumeration and application ----------------------------------

    def enabled_choices(self, mode: str) -> Sequence[tuple]:
        """Describe every schedulable step as a script-compatible tuple, in
        the order the events were queued; base picks come last.  Seeded mode
        gates crashes on crash_after and returns a view valid until the next
        apply_choice."""
        if mode == "seeded":
            if self._tree is None:
                self._build_tree()
            while self._gates and self._gates[-1][0] <= self.event_index:
                slot = self._gates.pop()[1]
                if slot in self.pending:
                    self._set_weight(slot)
            view = _SeededChoices(self)
            if view.units or view.picks:
                return view
            # Quiescent except for future crashes: let them fire late.
            return [ev for ev in self.pending.values() if ev[0] == "crash"]
        out: list[tuple] = []
        occ: dict[tuple, int] = {}
        for tag, x in self.pending.values():
            if tag == "deliver":
                key = x[1:4]
                k = occ.get(key, 0)
                occ[key] = k + 1
                out.append(("deliver", *key, k))
                if x.src in self.crashed:
                    out.append(("drop", *key, k))
            elif tag != "timer" or not self._proposals_to[x]:
                out.append((tag, x))
        out.extend(("pick", v.hex()) for v in self.open_picks())
        return out

    def apply_choice(self, choice: tuple) -> None:
        slot = self._slot_of(choice)
        if slot is None:
            raise ScenarioInvalid(f"no pending event for {choice!r}")
        self._apply(choice, slot)

    def _slot_of(self, choice: tuple) -> int | None:
        """The pending slot of choice if enabled_choices lists it, _PICK for
        an open pick, and None otherwise.  A pending delivery or decision is
        always listed, and so is a crash: the explore and scripted lists do
        not gate it."""
        tag = choice[0]
        if tag == "pick":
            legal = len(choice) == 2 and choice[1] in [v.hex() for v in self.open_picks()]
            return _PICK if legal else None
        if tag in ("deliver", "drop"):
            stream = self._slots.get(choice[1:4], ()) if len(choice) == 5 else ()
            k = choice[-1]
            slot = stream[k] if type(k) is int and 0 <= k < len(stream) else None
        else:
            stream = self._slots.get(choice) if len(choice) == 2 else None
            slot = stream[0] if stream else None
        if slot is None or tag not in ("drop", "timer"):
            return slot
        # A drop needs its twin (weight 2), a timer an empty proposal inbox.
        return slot if self._weight(self.pending[slot]) > (tag == "drop") else None

    def _apply(self, choice: tuple, slot: int) -> None:
        """Execute an enabled choice, given the slot _slot_of finds for it."""
        self.applied.append(choice)
        if slot == _PICK:
            self.base.decide(bytes.fromhex(choice[1]), self.base_legal)
            self.pick_done = True
            self._trace_event(
                {
                    "ev": "pick",
                    "val": choice[1],
                    "legal": [v.hex() for v in self.base_legal],
                }
            )
            for node in sorted(self.base.proposals):
                if node not in self.crashed:
                    self._add(("decision", node))
        else:
            tag, x = choice[0], self._remove(slot)[1]
            if tag == "deliver":
                self._dispatch_deliver(x)
            elif tag == "drop":
                self._dispatch_drop(x)
            elif tag == "decision":
                self._dispatch_decision(x)
            elif tag == "timer":
                self._dispatch_timer(x)
            else:
                self._dispatch_crash(x)
        self.event_index += 1
        self._post_event()

    # -- the pending index ---------------------------------------------------

    def _add(self, ev: tuple) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self.pending[slot] = ev
        tag, x = ev
        key = x[1:4] if tag == "deliver" else ev
        self._slots[key] = self._slots.get(key, ()) + (slot,)
        if self._proposals_to is not None and tag == "deliver" and x.kind == _PROPOSAL:
            self._count_proposal(x.dst, 1)
        if self._tree is not None:
            if slot < len(self._tree.w) and tag != "crash":
                self._set_weight(slot)
            else:
                self._tree = None   # full, or a gate to add: rebuilt when next read

    def _remove(self, slot: int) -> tuple:
        ev = self.pending.pop(slot)
        tag, x = ev
        key = x[1:4] if tag == "deliver" else ev
        stream = self._slots.pop(key)
        if len(stream) > 1:
            self._slots[key] = tuple(s for s in stream if s != slot)
        if self._proposals_to is not None and tag == "deliver" and x.kind == _PROPOSAL:
            self._count_proposal(x.dst, -1)
        tree = self._tree
        if tree is not None and tree.w[slot]:   # 0 if a seeded step took its only unit
            tree.set(slot, 0)
        return ev

    def _count_proposal(self, dst: NodeId, delta: int) -> None:
        self._proposals_to[dst] += delta
        if self._tree is not None:
            for timer in self._slots.get(("timer", dst), ()):
                self._set_weight(timer)

    def _weight(self, ev: tuple) -> int:
        """How many seeded choices a pending event stands for."""
        tag, x = ev
        if tag == "deliver":
            return 2 if x.src in self.crashed else 1   # the drop twin
        if tag == "timer":
            return 0 if self._proposals_to[x] else 1
        if tag == "crash":
            return int(self.event_index >= self.crash_after[x])
        return 1

    def _set_weight(self, slot: int) -> None:
        if self._tree is not None:
            self._tree.set(slot, self._weight(self.pending[slot]))

    def _build_tree(self) -> None:
        weights = [0] * (2 * self._next_slot + 64)   # room for slots to come
        for slot, ev in self.pending.items():
            weights[slot] = self._weight(ev)
        self._tree = _Fenwick(weights)
        self._gates = sorted(
            ((self.crash_after[x], slot) for slot, (tag, x) in self.pending.items()
             if tag == "crash" and not weights[slot]),
            reverse=True,
        )

    # -- dispatchers ---------------------------------------------------------

    def _dispatch_deliver(self, env: Envelope) -> None:
        seq, src, dst, kind, val, proof = env
        m = self.machines[dst]
        if kind == _PROPOSAL:
            actions = m.on_proposal(src, val)
        elif kind == _FULL:
            if isinstance(m, ProofAwareNode):
                actions = m.on_full(src, FullValue(val, proof))
            else:
                actions = []   # proof-oblivious machines ignore stray fullvals
        else:
            actions = m.on_base_message_observed()
        if self.record_trace:
            rec = {
                "ev": "deliver", "seq": seq, "src": src, "dst": dst, "kind": kind,
                "val": val.hex(), "proof": proof.hex(), "actions": [],
            }
            self._apply_actions(dst, actions, rec)
            self._trace_event(rec)
        elif actions:
            self._apply_actions(dst, actions, None)

    def _dispatch_drop(self, env: Envelope) -> None:
        dst = env.dst
        if env.kind == _BASE and dst not in self.crashed:
            # The wakeup was lost in flight; rearm so another live
            # participant's traffic can reach the bystander.
            m = self.machines[dst]
            if m.phase is Phase.FAST_DECIDED and not m.joined_base:
                self._unwoken.add(dst)
        self._trace_event(
            {"ev": "drop", "seq": env.seq, "src": env.src, "dst": dst, "kind": env.kind}
        )

    def _dispatch_decision(self, node: NodeId) -> None:
        value = self.base_decisions.get(node, self.base.decided)
        rec = None
        if self.record_trace:
            rec = {"ev": "decision", "node": node, "val": value.hex(), "actions": []}
        try:
            actions = self.machines[node].on_base_decision(value)
        except ConsistencyViolation as e:
            self.violations.append(("consistency", str(e)))
            actions = []
        self._apply_actions(node, actions, rec)
        self._trace_event(rec)

    def _dispatch_timer(self, node: NodeId) -> None:
        rec = {"ev": "timer", "node": node, "actions": []} if self.record_trace else None
        self._apply_actions(node, self.machines[node].on_timeout(), rec)
        self._trace_event(rec)

    def _dispatch_crash(self, node: NodeId) -> None:
        self.crashed.add(node)
        self._live_cache = None
        self._unwoken.discard(node)
        slots = self._slots
        for ev in (("decision", node), ("timer", node)):
            for slot in slots.get(ev, ()):
                self._remove(slot)
        for other in range(self.cfg.n):
            for kind in _KINDS:
                for slot in slots.get((other, node, kind), ()):
                    self._remove(slot)
                if self._tree is not None:
                    # Its envelopes in flight gain a drop twin.
                    for slot in slots.get((node, other, kind), ()):
                        self._set_weight(slot)
        self._trace_event({"ev": "crash", "node": node})

    def _trace_event(self, rec: dict | None) -> None:
        if rec is not None and self.record_trace:
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
        randrange = random.Random(seed).randrange
        while True:
            choices = self.enabled_choices("seeded")
            count = len(choices)
            if not count:
                break
            self._check_budget()
            i = randrange(count)
            if isinstance(choices, _SeededChoices):
                self._apply(*choices.take(i))
            else:
                self.apply_choice(choices[i])

    def _run_scripted(self, steps: list[tuple]) -> None:
        script = steps[::-1]   # the next step last, so consuming one is a pop
        while True:
            head = _normalize_step(script[-1]) if script else None
            slot = self._slot_of(head) if script else None
            if slot is not None:
                self._check_budget()
                script.pop()
                self._apply(head, slot)
                continue
            choices = self.enabled_choices("scripted")
            if not choices:
                if script:
                    raise ScenarioInvalid(
                        f"script has {len(script)} unconsumed steps, "
                        f"first {script[-1]!r}"
                    )
                break
            self._check_budget()
            # The FIFO tail takes no crash before its seeded index.  Its first
            # free choice is never a drop: a drop is listed right after its
            # delivery twin, and _stream_key reserves both together.
            free = [c for c in choices if c[0] != "crash" or self._weight(c)]
            if script:
                keys = {_stream_key(s) for s in script}
                free = [c for c in free if _stream_key(c) not in keys]
                if not free:
                    raise ScenarioInvalid(
                        f"script deadlock: step {script[-1]!r} never enabled"
                    )
            self.apply_choice(free[0] if free else choices[0])

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
            scenario=self.sc,
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
        dup.pending = dict(self.pending)
        dup._slots = dict(self._slots)
        if self._proposals_to is not None:
            dup._proposals_to = list(self._proposals_to)
        dup._tree, dup._gates = None, []
        dup.base = BaseInstance()
        dup.base.proposals = dict(self.base.proposals)
        dup.base.decided = self.base.decided
        dup._unwoken = set(self._unwoken)
        dup.base_decisions = dict(self.base_decisions)
        dup.counters = {k: dict(v) for k, v in self.counters.items()}
        dup.decisions = dict(self.decisions)
        dup.violations = list(self.violations)
        dup.applied = list(self.applied)
        return dup

    def state_key(self) -> tuple:
        """An exact projection of what can still change a choice, the audit
        or the leaf outcome, as a tuple of hashable parts: one machine key
        and one inbox per node, then the rest.  An inbox groups pending
        envelopes by stream in seq order, the order a choice's occurrence
        index counts.  Left out: the scenario and the settings fixed with
        it; history no future step reads (counters, seq, event_index, which
        explore never gates crashes on, applied, events and decision event
        indices, violation details); and the indexes and caches derived from
        the key's parts (over pending, correct_live and the legal set)."""
        inbox: list[list[tuple]] = [[] for _ in self.machines]
        other = []
        for ev in self.pending.values():
            if ev[0] == "deliver":
                e = ev[1]
                inbox[e.dst].append((e.src, e.kind, e.val, e.proof))
            else:
                other.append(ev)
        base = self.base
        rest = (
            tuple(sorted(other)), tuple(sorted(self.crashed)),
            tuple(sorted(self._unwoken)),
            # The base instance.
            tuple((p, fv.val, fv.proof) for p, fv in sorted(base.proposals.items())),
            base.decided, self.byz_activator, self.pick_done, tuple(self.base_legal),
            tuple(sorted(self.base_decisions.items())),
            # The audit's inputs.
            tuple((d, r.value, r.path) for d, r in sorted(self.decisions.items())),
            tuple(sorted({k for k, _ in self.violations})),
        )
        stream = itemgetter(0, 1)   # (src, kind); the sort is stable, seq order stays
        return (
            *(m.state_key() if m is not None else None for m in self.machines),
            *(tuple(sorted(box, key=stream)) for box in inbox),
            rest,
        )


class _Fenwick:
    """Prefix sums over per-slot weights (Fenwick, SP&E 1994): an update,
    finding the slot that holds the r-th unit, and taking that unit each
    cost O(log n).  The capacity is the next power of two at or above
    len(weights), so a descent from the root never leaves the tree."""

    def __init__(self, weights: list[int]):
        cap = 1 << (len(weights) - 1).bit_length()
        self.w = weights + [0] * (cap - len(weights))
        self.t = t = [0, *self.w]
        for i in range(1, cap):
            t[i + (i & -i)] += t[i]
        self.total = sum(weights)
        self.steps = tuple(cap >> k for k in range(cap.bit_length()))   # a descent's strides

    def set(self, slot: int, weight: int) -> None:
        delta = weight - self.w[slot]
        if delta:
            self.w[slot] = weight
            self.total += delta
            t, size = self.t, len(self.t)
            i = slot + 1
            while i < size:
                t[i] += delta
                i += i & -i

    def find(self, r: int) -> tuple[int, int]:
        """The slot holding unit r, counted from 0 in slot order, and r's
        offset within that slot's weight; r < total."""
        t, pos = self.t, 0
        for step in self.steps:
            nxt = pos + step
            if t[nxt] <= r:
                pos = nxt
                r -= t[nxt]
        return pos, r

    def take(self, r: int) -> tuple[int, int]:
        """find(r), removing unit r from the tree in the same descent: the
        nodes it does not step past are exactly those that cover the slot."""
        t, pos = self.t, 0
        for step in self.steps:
            nxt = pos + step
            v = t[nxt]
            if v <= r:
                pos = nxt
                r -= v
            else:
                t[nxt] = v - 1
        self.w[pos] -= 1
        self.total -= 1
        return pos, r


class _SeededChoices(Sequence):
    """The seeded choice list read through the index: entry i is the i-th
    choice in queue order, found in O(log n) without listing the others."""

    __slots__ = ("rn", "units", "picks")

    def __init__(self, rn: Runner):
        self.rn = rn
        self.units = rn._tree.total
        self.picks = rn.open_picks()

    def __len__(self) -> int:
        return self.units + len(self.picks)

    def __getitem__(self, i: int) -> tuple:
        if not 0 <= i < self.units + len(self.picks):
            raise IndexError(i)
        return self._entry(i, self.rn._tree.find)[0]

    def take(self, i: int) -> tuple[tuple, int]:
        """Entry i and the pending slot it stands for, _PICK for a pick,
        with its unit taken from the index: the view is spent after."""
        return self._entry(i, self.rn._tree.take)

    def _entry(self, i: int, find) -> tuple[tuple, int]:
        if i >= self.units:
            return ("pick", self.picks[i - self.units].hex()), _PICK
        slot, twin = find(i)
        tag, x = self.rn.pending[slot]
        if tag != "deliver":
            return (tag, x), slot
        key = x[1:4]
        return ("drop" if twin else "deliver", *key, self.rn._slots[key].index(slot)), slot


def run(scenario: Scenario, record_trace: bool = True) -> Trace:
    return Runner(scenario, record_trace=record_trace).run()


# --- helpers ----------------------------------------------------------------

def _normalize_step(step) -> tuple:
    step = tuple(step)
    if step[0] in ("deliver", "drop") and len(step) == 4:
        return step + (0,)
    return step


def _stream_key(step: tuple) -> tuple:
    """What a script step reserves: its envelope stream, any pick, or itself."""
    if step[0] in ("deliver", "drop"):
        return ("deliver", *step[1:4])
    return step[:1] if step[0] == "pick" else step
