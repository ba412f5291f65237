"""Exhaustive interleaving search over a scenario's schedulable choices.

A depth-first walk of the choice tree (delivery orders, in-flight drops from
crashed senders, crash placements, base-outcome picks) with sleep-set pruning:
after exploring choice c from a state, sibling subtrees skip re-exploring
orders that only commute c with an independent choice.  Independence is
conditional on the current state — two deliveries to the same recipient
commute unless one of them is the recipient's threshold trigger.

The pruning is validated empirically elsewhere by comparing the reachable
outcome set against an unpruned walk on small systems.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .core import MsgKind, Variant
from .optimizer import Phase
from .proof_aware import ProofAwareNode
from .simnet import Exhaustive, Runner, Scenario

_PROPOSAL = MsgKind.PROPOSAL.value
_FULL = MsgKind.FULL.value
_BASE = MsgKind.BASE.value


@dataclass
class ExplorationReport:
    leaves: int = 0
    events: int = 0
    violating_leaves: int = 0
    violation_kinds: Counter = field(default_factory=Counter)
    witness: list[tuple] | None = None
    budget_exceeded: bool = False
    outcomes: Counter = field(default_factory=Counter)

    @property
    def violation_count(self) -> int:
        return self.violating_leaves


class _Budget(Exception):
    pass


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
    """
    sched = scenario.schedule
    limits = sched if isinstance(sched, Exhaustive) else Exhaustive()
    leaves_cap = max_leaves if max_leaves is not None else limits.max_leaves
    events_cap = max_events if max_events is not None else limits.max_events
    report = ExplorationReport()
    root = Runner(scenario, record_trace=False)
    root.start_batch()
    try:
        _dfs(root, [], report, leaves_cap, events_cap, prune)
    except _Budget:
        report.budget_exceeded = True
    return report


def _dfs(
    rn: Runner,
    sleep: list[tuple],
    report: ExplorationReport,
    leaves_cap: int,
    events_cap: int,
    prune: bool,
) -> None:
    enabled = rn.enabled_choices("explore")
    if not enabled:
        _leaf(rn, report, leaves_cap)
        return
    if prune:
        frontier = [c for c in enabled if c not in sleep]
        if not frontier:
            # Every continuation is a reordering already covered elsewhere.
            return
        for c in frontier:
            # A delivery that provably commutes with every present and
            # future choice can be consumed alone instead of branching
            # (and its drop twin, if any, would be equally inert).
            if c[0] == "deliver" and (
                _deliver_noop(c, rn) or _singleton_ample(c, rn)
            ):
                if report.events >= events_cap:
                    raise _Budget
                rn.apply_choice(c)
                report.events += 1
                _dfs(rn, sleep, report, leaves_cap, events_cap, prune)
                return
        cluster = _ample_cluster(enabled, rn)
        if cluster is not None:
            frontier = [c for c in cluster if c not in sleep]
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
        new_sleep = (
            [u for u in sleep + done if _independent(u, c, rn)] if prune else []
        )
        child.apply_choice(c)
        report.events += 1
        _dfs(child, new_sleep, report, leaves_cap, events_cap, prune)
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

def _independent(a: tuple, b: tuple, rn: Runner) -> bool:
    """True when a and b commute from rn's current state.

    Used only to carry sleep-set entries downward, so it must never claim
    independence for choices whose order can change any audited outcome.
    Conservative False answers merely cost pruning.
    """
    ta, tb = a[0], b[0]
    if ta in ("deliver", "drop") and tb in ("deliver", "drop"):
        if a[1:4] == b[1:4]:
            return False   # same (src, dst, kind) stream, or same envelope
        if "drop" in (ta, tb):
            # A drop touches no machine; distinct envelopes always commute.
            return True
        return _delivers_commute(a, b, rn)
    if "pick" in (ta, tb):
        if ta == tb:
            return False
        other = a if tb == "pick" else b
        # While a pick is enabled, no delivery can add a proposal or shrink
        # the legal set; only a crash can.
        return other[0] != "crash"
    if "crash" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        crash, other = (a, b) if ta == "crash" else (b, a)
        node = crash[1]
        if other[0] in ("deliver", "drop"):
            return node not in (other[1], other[2])
        return node != other[1]   # decision/timer on the crashing node
    if "decision" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        dec, other = (a, b) if ta == "decision" else (b, a)
        if other[0] == "drop":
            # Only a base-observation drop mutates state (it re-arms the
            # observation for its target).
            return other[3] != _BASE or dec[1] != other[2]
        if other[0] == "deliver":
            return dec[1] != other[2] or _deliver_noop(other, rn)
        return dec[1] != other[1]
    if "timer" in (ta, tb):
        if ta == tb:
            return a[1] != b[1]
        tmr, other = (a, b) if ta == "timer" else (b, a)
        if other[0] in ("deliver", "drop"):
            return tmr[1] != other[2]
        return tmr[1] != other[1]
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
            and (m.broadcast_full or src in m.replied_to)
        )
    # Base observation: a no-op unless it could trigger the one-time join —
    # machines still collecting might yet fast-decide, so only settled
    # phases count.
    return m.phase in (Phase.IN_BASE, Phase.DONE) or (
        m.phase is Phase.FAST_DECIDED and m.joined_base
    )


def _singleton_ample(c: tuple, rn: Runner) -> bool:
    """True when delivering c now loses no schedules.

    Holds for a first-round vote whose receiver still needs every pending
    vote to reach its threshold: the eventual quorum is then the same set
    under any order, so c commutes with each present choice, and nothing
    dependent on c (a later vote, the receiver's crash or timer, traffic
    spawned by the receiver's own decision) can occur before c does.  Votes
    are only ever sent at the start, which is what makes "every pending"
    equal to "every future" — except under the proof-carrying variant,
    where later full-value broadcasts also target this receiver, so that
    variant is excluded wholesale.
    """
    _, src, dst, kind, _ = c
    if kind != _PROPOSAL or rn.cfg.variant is Variant.PROOF_AWARE:
        return False
    if src in rn.crashed:
        return False   # the choice has a drop twin: a real branch
    m = rn.machines[dst]
    if m.phase is not Phase.COLLECTING or rn.cfg.sync_timeout is not None:
        return False
    if src in m.votes:
        return False   # duplicate: the no-op rule covers it
    new_senders = set()
    for ev in rn.pending:
        if ev[0] in ("crash", "timer") and ev[1] in (src, dst):
            return False
        if ev[0] != "deliver":
            continue
        e = ev[1]
        if e.dst != dst:
            continue
        if e.kindval != _PROPOSAL:
            return False
        if e.src == src and e.src in new_senders:
            return False   # two envelopes on one stream: order is first-wins
        if e.src not in m.votes:
            new_senders.add(e.src)
    return len(new_senders) <= rn.cfg.threshold - len(m.votes)


def _ample_cluster(enabled: list[tuple], rn: Runner) -> list[tuple] | None:
    """A persistent subset of the enabled choices: all deliveries (and drop
    twins) aimed at one still-collecting receiver.

    Branching over just this cluster is sufficient when nothing outside it
    can ever conflict with a member: votes are only sent at the start, so
    the receiver's future inbox is its current inbox; decisions and picks
    commute with deliveries; crashes are ruled out for the receiver and all
    senders involved.  Everything not in the cluster is explored after it,
    which costs nothing because it all commutes.  Smallest cluster wins —
    fewer branches up front shrink the tree the most.
    """
    if rn.cfg.variant is Variant.PROOF_AWARE or rn.cfg.sync_timeout is not None:
        return None
    crashy: set[int] = set()
    by_dst: dict[int, list[tuple]] = {}
    ok_dst: set[int] = set()
    for c in enabled:
        t = c[0]
        if t in ("crash", "timer"):
            crashy.add(c[1])
        elif t in ("deliver", "drop"):
            by_dst.setdefault(c[2], []).append(c)
    for dst, members in by_dst.items():
        if rn.machines[dst].phase is not Phase.COLLECTING:
            continue
        if any(c[3] != _PROPOSAL for c in members):
            continue
        if dst in crashy or any(c[1] in crashy for c in members):
            continue
        ok_dst.add(dst)
    if not ok_dst:
        return None
    best = min(ok_dst, key=lambda d: (len(by_dst[d]), d))
    return by_dst[best]


def _delivers_commute(a: tuple, b: tuple, rn: Runner) -> bool:
    _, asrc, adst, akind, _ = a
    _, bsrc, bdst, bkind, _ = b
    if adst != bdst:
        return True   # different recipients never share machine state
    if _deliver_noop(a, rn) or _deliver_noop(b, rn):
        return True
    if akind != bkind:
        return False   # proposal/full/base interplay on one machine: keep order
    m = rn.machines[adst]
    if akind == _PROPOSAL:
        if rn.cfg.sync_timeout is not None:
            return True   # votes buffer until the timer; no trigger
        return len(m.votes) + 1 != rn.cfg.threshold
    if akind == _FULL:
        if m.phase is Phase.FULL_EXCHANGE and not m.full_evaluated:
            return len(m.fullvals) + 1 != rn.cfg.threshold
        return True
    # Two live base observations: the first one joins, the second becomes a
    # no-op, and which is which does not change the joined state.
    return True
