"""Exhaustive interleaving search over a scenario's schedulable choices.

A depth-first walk of the choice tree (delivery orders, in-flight drops from
crashed senders, crash placements, base-outcome picks), reduced as in
Godefroid, Partial-Order Methods, LNCS 1032, 1996.  Each choice has one
owner node (_owner).  A delivery that changes nothing is consumed alone;
otherwise a new state branches only on one persistent set, the choices of
the fewest owners that nothing outside them can conflict with
(_persistent).  Sleep sets then skip orders that only commute a choice
with an independent sibling (_independent): one of another owner, bar a
crash, or of the same owner whose machine the order provably leaves alone.

The walk is stateful: each visited state is cached under an exact key
(Runner.state_key) with the sleep set it was explored with; a state reached
again is skipped unless its stored sleep set holds a choice the new one does
not.  So leaves and the outcome multiplicities count visited leaf states,
not interleavings.

The reductions are checked against the unpruned walk on generated systems.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .core import MsgKind, Variant
from .optimizer import Phase
from .proof_aware import ProofAwareNode
from .simnet import Exhaustive, Runner, Scenario

_PROPOSAL = MsgKind.PROPOSAL.value
_FULL = MsgKind.FULL.value
_BASE_NODE = -1   # the owner of a pick


@dataclass
class ExplorationReport:
    leaves: int = 0
    events: int = 0
    violating_leaves: int = 0
    violation_kinds: Counter = field(default_factory=Counter)
    witness: list[tuple] | None = None
    budget_exceeded: bool = False
    outcomes: Counter = field(default_factory=Counter)
    states: int = 0
    cache_hits: int = 0

    @property
    def violation_count(self) -> int:
        return self.violating_leaves


class _Budget(Exception):
    pass


class _Cache:
    """One search's visited states, each with the sleep set it was explored
    with.  Both are stored exactly, so no state is skipped on a collision:
    a state as the interned ids of its projection's parts, packed into bytes,
    and a sleep set as a bitmask over interned choices."""

    def __init__(self) -> None:
        self.sleeps: dict[bytes, int] = {}
        self.parts: dict[tuple, int] = {}
        self.bits: dict[tuple, int] = {}

    def key(self, rn: Runner) -> bytes:
        ids = self.parts
        parts = [ids.setdefault(p, len(ids)) for p in rn.state_key()]
        return array("I", parts).tobytes()

    def mask(self, choices: list[tuple]) -> int:
        bits = self.bits
        m = 0
        for c in choices:
            m |= 1 << bits.setdefault(c, len(bits))
        return m


def explore(
    scenario: Scenario,
    max_leaves: int | None = None,
    max_events: int | None = None,
    prune: bool = True,
) -> ExplorationReport:
    """Run every interleaving of the scenario and summarize the leaves.

    The scenario's schedule should be Exhaustive; its limits apply unless
    overridden here.  Returns counts of leaves and violating leaves, the
    multiset of distinct outcomes, and the shortest violating choice script.
    With prune=True a state reached again is not walked again, so leaves and
    the outcome multiplicities count visited leaf states, and the witness is
    the shortest among the violating leaves visited; it still replays.
    prune=False walks every interleaving: the ground truth, without a cache.
    """
    sched = scenario.schedule
    limits = sched if isinstance(sched, Exhaustive) else Exhaustive()
    leaves_cap = max_leaves if max_leaves is not None else limits.max_leaves
    events_cap = max_events if max_events is not None else limits.max_events
    report = ExplorationReport()
    root = Runner(scenario, record_trace=False)
    root.start_batch()
    cache = _Cache() if prune else None
    try:
        _dfs(root, [], report, leaves_cap, events_cap, cache)
    except _Budget:
        report.budget_exceeded = True
    report.states = len(cache.sleeps) if cache else 0
    return report


def _dfs(
    rn: Runner,
    sleep: list[tuple],
    report: ExplorationReport,
    leaves_cap: int,
    events_cap: int,
    cache: _Cache | None,
) -> None:
    stored = None
    if cache is not None:
        # A state explored with sleep set T already covers every leaf a visit
        # with sleep set S must find when T is a subset of S (Godefroid,
        # Partial-Order Methods, LNCS 1032, 1996).
        key = cache.key(rn)
        mask = cache.mask(sleep)
        stored = cache.sleeps.get(key)
        if stored is not None and not stored & ~mask:
            report.cache_hits += 1
            return
        cache.sleeps[key] = mask if stored is None else stored & mask
    enabled = rn.enabled_choices("explore")
    if not enabled:
        if stored is None:
            _leaf(rn, report, leaves_cap)
        return
    if stored is not None:
        # Otherwise only the choices earlier visits slept on and this one
        # does not are new, and they run under the intersected sleep set.
        bits = cache.bits
        awake = stored & ~mask
        frontier = [c for c in enabled if c in bits and awake >> bits[c] & 1]
        sleep = [u for u in sleep if stored >> bits[u] & 1]
    elif cache is not None:
        frontier = [c for c in enabled if c not in sleep]
        if not frontier:
            # Every continuation is a reordering already covered elsewhere.
            return
        for c in frontier:
            # A delivery that provably commutes with every present and
            # future choice can be consumed alone instead of branching
            # (and its drop twin, if any, would be equally inert).
            if c[0] == "deliver" and _deliver_noop(c, rn):
                if report.events >= events_cap:
                    raise _Budget
                rn.apply_choice(c)
                report.events += 1
                _dfs(rn, sleep, report, leaves_cap, events_cap, cache)
                return
        frontier = [c for c in _persistent(enabled, rn) if c not in sleep]
        if not frontier:
            return
    else:
        frontier = enabled
    done: list[tuple] = []
    for i, c in enumerate(frontier):
        if report.events >= events_cap:
            raise _Budget
        # The last branch can run in place; earlier ones need a clone.
        child = rn if i == len(frontier) - 1 else rn.clone()
        new_sleep = [u for u in sleep + done if _independent(u, c, rn)] if cache else []
        child.apply_choice(c)
        report.events += 1
        _dfs(child, new_sleep, report, leaves_cap, events_cap, cache)
        done.append(c)


def _leaf(rn: Runner, report: ExplorationReport, leaves_cap: int) -> None:
    rn._audit()
    report.leaves += 1
    sig_decisions = tuple(
        (
            node,
            rn.decisions[node].value.hex() if node in rn.decisions else None,
            rn.decisions[node].path.value if node in rn.decisions else None,
        )
        for node in sorted(rn._correct_live())
    )
    kinds = tuple(sorted({k for k, _ in rn.violations}))
    report.outcomes[(sig_decisions, kinds)] += 1
    if rn.violations:
        report.violating_leaves += 1
        for k, _ in rn.violations:
            report.violation_kinds[k] += 1
        if report.witness is None or len(rn.applied) < len(report.witness):
            report.witness = list(rn.applied)
    if report.leaves >= leaves_cap:
        raise _Budget


# --- conditional independence ----------------------------------------------

def _owner(c: tuple) -> int:
    """The node a choice touches: a delivery's or drop's receiver, the node
    of a crash, timer or decision, and the base for a pick."""
    if c[0] in ("deliver", "drop"):
        return c[2]
    return _BASE_NODE if c[0] == "pick" else c[1]


def _independent(a: tuple, b: tuple, rn: Runner) -> bool:
    """True when a and b commute from rn's current state.

    Used only to carry sleep-set entries downward, so it must never claim
    independence for choices whose order can change any audited outcome.
    Conservative False answers merely cost pruning.
    """
    ta, tb = a[0], b[0]
    if _owner(a) != _owner(b):
        # Different owners touch different machines.  Only a crash reaches
        # past its node: while a pick is enabled only a crash can shrink the
        # legal set, and a crash turns the envelopes its node sent into drops
        # ([1] is an envelope's sender, and the node of any other choice).
        if ta == "crash":
            return tb != "pick" and b[1] != a[1]
        return tb != "crash" or ta != "pick" and a[1] != b[1]
    if ta in ("deliver", "drop") and tb in ("deliver", "drop"):
        if a[1:4] == b[1:4]:
            return False   # same (src, dst, kind) stream, or same envelope
        if ta == "drop" or tb == "drop" or _deliver_noop(a, rn) or _deliver_noop(b, rn):
            return True    # a drop touches no machine; a no-op changes nothing
        if a[3] != b[3]:
            return False   # proposal/full/base interplay on one machine: keep order
        kind, m = a[3], rn.machines[a[2]]
        if kind == _PROPOSAL:
            # In the timeout variant votes buffer until the timer: no trigger.
            return rn.cfg.sync_timeout is not None or len(m.votes) + 1 != rn.cfg.threshold
        if kind == _FULL and m.phase is Phase.FULL_EXCHANGE:
            return len(m.fullvals) + 1 != rn.cfg.threshold
        # Full values outside an open exchange, or two live base wakeups: the
        # first wakeup joins, and which one it is does not change the state.
        return True
    if ta == "decision" or tb == "decision":
        # A decision commutes with a no-op delivery and with any drop: its
        # node has joined the base, and a lost wakeup rearms only a node
        # that has not.
        other = b if ta == "decision" else a
        return other[0] == "drop" or other[0] == "deliver" and _deliver_noop(other, rn)
    return False


def _deliver_noop(c: tuple, rn: Runner) -> bool:
    """True when delivering c provably changes nothing observable, now or
    ever (the conditions below are stable: phases never regress and the
    vote/value books only grow).  Envelopes only ever go to nodes that run
    a machine, so rn.machines[dst] is never None here."""
    _, src, dst, kind, _ = c
    m = rn.machines[dst]
    if kind == _PROPOSAL:
        return m.phase is not Phase.COLLECTING or src in m.votes
    if kind == _FULL:
        if not isinstance(m, ProofAwareNode):
            return True
        return (
            m.phase not in (Phase.COLLECTING, Phase.FULL_EXCHANGE)
            and src in m.full_sent_to
        )
    # Base observation: a no-op unless it could trigger the one-time join —
    # machines still collecting might yet fast-decide, so only settled
    # phases count.
    return m.phase in (Phase.IN_BASE, Phase.DONE) or (
        m.phase is Phase.FAST_DECIDED and m.joined_base
    )


def _persistent(enabled: list[tuple], rn: Runner) -> list[tuple]:
    """A persistent subset of the enabled choices (Godefroid, LNCS 1032,
    ch. 4; Valmari's stubborn sets): no run of choices outside it conflicts
    with a choice in it, so branching on it alone loses no leaf.

    Each choice belongs to its _owner.  From one node, the set of nodes is
    closed under the conflicts that cross nodes; the rest is one machine's
    own business:
    - a sender with a pending crash joins its receiver: the crash enables
      the drop twin, which disables the delivery;
    - a crashing node that has proposed brings in the base until the pick
      is done: the crash can change the legal set;
    - the base brings in every crashing node while picks are enabled, and
      otherwise one live correct node that has not proposed: no pick is
      enabled before that node's own choices make it propose or crash;
    - proof-aware only, a node joins a member it may still send a full
      value the member would not ignore: one still collecting, which may
      broadcast, or one holding the member's full value unanswered;
    - votes go out only at start, so any other envelope a node outside the
      set can send a member is a base wakeup, which conflicts only with the
      member's crash: a set holding the crash of a node that fast-decided,
      has not joined and is still in the bystander set is dropped.
    Decisions exist only after the pick, and a timer only waits on its own
    node's inbox.  The smallest closed set over all starts wins; with none,
    every choice.

    The cache needs no cycle proviso, because the state graph is acyclic:
    each choice consumes a pending event or the one pick, and creates events
    only as a machine or the base moves forward (phases, books, full_sent_to).
    The exception, a dropped wakeup re-sent, comes from a different, live
    source, which must crash, consuming a pending crash, before it drops.
    Deliveries to different receivers commute at the level of outcomes, as
    _independent assumes too: they touch different machines and streams,
    and share only which live proposer sources a later wakeup, which
    matters only if that source crashes, and then a live one re-sends it.
    """
    owners = [_owner(c) for c in enabled]
    sizes = Counter(owners)
    crashing = {c[1] for c in enabled if c[0] == "crash"}
    streams = {c[1:4] for c in enabled if c[0] == "deliver"}
    machines, proposed = rn.machines, rn.base.proposals
    unwoken = crashing & rn._unwoken

    @cache
    def needs(x: int) -> set[int]:
        if x == _BASE_NODE:
            if rn.open_picks():
                return crashing
            return set([p for p in rn._correct_live() if p not in proposed][:1])
        out = {c[1] for c, o in zip(enabled, owners)
               if o == x and c[0] == "deliver" and c[1] in crashing}
        if x in crashing and x in proposed and not rn.pick_done:
            out.add(_BASE_NODE)
        for y, m in enumerate(machines if rn.cfg.variant is Variant.PROOF_AWARE else ()):
            # y may yet send x a full value by broadcasting or by answering x.
            sends = m is not None and y != x and y not in rn.crashed and (
                m.phase is Phase.COLLECTING or (x, y, _FULL) in streams
                and x not in m.full_sent_to)
            if sends and not _deliver_noop(("deliver", y, x, _FULL, 0), rn):
                out.add(y)
        return out

    best, chosen = len(enabled), None
    for start in sizes:
        closed, todo = {start}, [start]
        while todo:
            more = needs(todo.pop()) - closed
            closed |= more
            todo.extend(more)
        size = sum(sizes[x] for x in closed)
        if size < best and not closed & unwoken:
            best, chosen = size, closed
    return enabled if chosen is None else [c for c, o in zip(enabled, owners) if o in chosen]
