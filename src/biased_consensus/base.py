"""Base-consensus layer: a refereeing oracle plus concrete sync-round protocols.

The oracle is the default base: it never exchanges messages, it just knows
which values a real protocol would be allowed to decide given the proposals
registered so far, and lets the adversary pick among them.  That turns the
base consensus into a worst-case branch point for exploration instead of a
source of incidental schedule noise.

For demonstrations over a real protocol three synchronous-round engines are
provided: a flooding protocol for crash faults (f + 1 rounds), a phase-king
protocol for the classical Byzantine model (n > 4f), and an EIG-style
protocol for the binary external model (n > 3f).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Mapping

from .core import (
    DuplicatePropose,
    FailureModel,
    FullValue,
    NodeId,
    NoLegalValue,
    OptimizerConfig,
    PreconditionViolation,
    ValidityPredicate,
)


class BaseFlavor(enum.Enum):
    BENIGN = "benign"         # crash faults; crashed proposers still count
    CLASSICAL = "classical"   # Byzantine; correct proposals only
    EXTERNAL = "external"     # decision must pass the validity predicate
    BINARY = "binary"         # two-value domain, classical validity


def flavor_for(cfg: OptimizerConfig) -> BaseFlavor:
    if cfg.model is FailureModel.BENIGN:
        return BaseFlavor.BENIGN
    if cfg.model is FailureModel.BYZANTINE_CLASSICAL:
        return BaseFlavor.CLASSICAL
    return BaseFlavor.BINARY if cfg.binary_domain else BaseFlavor.EXTERNAL


class BaseInstance:
    """Bookkeeping for one base-consensus instance refereed by the oracle."""

    def __init__(self) -> None:
        self.proposals: dict[NodeId, FullValue] = {}
        self.decided: bytes | None = None

    def propose(self, node: NodeId, value: FullValue) -> None:
        if node in self.proposals:
            raise DuplicatePropose(f"node {node} proposed twice to the base instance")
        self.proposals[node] = value

    def legal_decisions(
        self,
        flavor: BaseFlavor,
        correct_live: Iterable[NodeId],
        crashed: Iterable[NodeId] = (),
        valid: ValidityPredicate | None = None,
    ) -> list[bytes]:
        """Values a correct base protocol could decide, sorted for determinism.

        correct_live / crashed classify the proposers; proposals from nodes in
        neither set (Byzantine) never constrain or widen the legal set.
        """
        live = [self.proposals[p].val for p in self.proposals if p in set(correct_live)]
        if not live:
            raise PreconditionViolation("no correct proposer registered")
        if flavor is BaseFlavor.BENIGN:
            # A proposer that crashed afterwards still got its value into the
            # protocol, so it stays a candidate and breaks unanimity.
            pool = live + [
                self.proposals[p].val for p in self.proposals if p in set(crashed)
            ]
            if len(set(pool)) == 1:
                return [pool[0]]
            return sorted(set(pool))
        if len(set(live)) == 1:
            return [live[0]]
        if flavor is BaseFlavor.EXTERNAL:
            if valid is None:
                raise PreconditionViolation("external flavor needs a validity predicate")
            ok = sorted(
                {
                    fv.val
                    for p, fv in self.proposals.items()
                    if p in set(correct_live) and valid(fv)
                }
            )
            if not ok:
                raise NoLegalValue("no valid proposal among correct proposers")
            return ok
        return sorted(set(live))

    def decide(self, value: bytes, legal: Iterable[bytes]) -> bytes:
        if self.decided is not None:
            raise DuplicatePropose("base instance already decided")
        if value not in set(legal):
            raise PreconditionViolation(f"decision {value!r} outside the legal set")
        self.decided = value
        return value


# --- concrete synchronous-round protocols -----------------------------------
#
# Each engine returns (decisions, messages) where decisions maps every correct
# participant to its decided payload and messages is a list of
# (round, src, dst, nbytes) records for traffic accounting.

SyncMessages = list[tuple[int, NodeId, NodeId, int]]

# Adversarial round behavior: (round, src, dst, honest_payload) -> payload or
# None for silence.  honest_payload is what a correct node would have sent.
ByzBehavior = Callable[[int, NodeId, NodeId, object], object]


def byz_silent(_round: int, _src: NodeId, _dst: NodeId, _payload: object) -> object:
    return None


def byz_scramble(pool: list[bytes], rng) -> ByzBehavior:
    """Send an arbitrary pool value instead of the honest payload."""

    def behavior(_round: int, _src: NodeId, _dst: NodeId, payload: object) -> object:
        if isinstance(payload, dict):
            return {label: rng.choice(pool) for label in payload}
        return rng.choice(pool)

    return behavior


def _payload_size(payload: object) -> int:
    if payload is None:
        return 0
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return sum(len(v) for v in payload.values())
    if isinstance(payload, (set, frozenset, list, tuple)):
        return sum(len(v) for v in payload)
    raise TypeError(f"unsized payload {payload!r}")


def run_floodset(
    n: int,
    f: int,
    proposals: Mapping[NodeId, bytes],
    crashes: Mapping[NodeId, tuple[int, frozenset[NodeId]]] | None = None,
) -> tuple[dict[NodeId, bytes], SyncMessages]:
    """Flooding consensus for crash faults: f + 1 rounds, decide min.

    crashes maps a node to (round, recipients): in that round it reaches only
    the listed recipients and is silent afterwards.
    """
    crashes = dict(crashes or {})
    if len(crashes) > f:
        raise PreconditionViolation(f"{len(crashes)} crashes exceed f={f}")
    known: dict[NodeId, set[bytes]] = {p: {v} for p, v in proposals.items()}
    messages: SyncMessages = []
    for rnd in range(1, f + 2):
        sends: list[tuple[NodeId, NodeId, frozenset[bytes]]] = []
        for src in sorted(known):
            if src in crashes and crashes[src][0] < rnd:
                continue
            payload = frozenset(known[src])
            for dst in sorted(known):
                if dst == src:
                    continue
                if src in crashes and crashes[src][0] == rnd:
                    if dst not in crashes[src][1]:
                        continue
                sends.append((src, dst, payload))
        for src, dst, payload in sends:
            messages.append((rnd, src, dst, _payload_size(payload)))
            if not (dst in crashes and crashes[dst][0] <= rnd):
                known[dst].update(payload)
    decisions = {
        p: min(sorted(known[p])) for p in sorted(known) if p not in crashes
    }
    return decisions, messages


def run_phase_king(
    n: int,
    f: int,
    proposals: Mapping[NodeId, bytes],
    byz: Mapping[NodeId, ByzBehavior] | None = None,
) -> tuple[dict[NodeId, bytes], SyncMessages]:
    """Phase-king consensus for the classical Byzantine model; needs n > 4f.

    f + 1 phases of two rounds each: an all-to-all vote, then the phase's king
    broadcasts its tally winner; nodes without an overwhelming majority adopt
    the king's value.
    """
    byz = dict(byz or {})
    if 4 * f >= n:
        raise PreconditionViolation(f"phase king needs n > 4f, got n={n} f={f}")
    if len(byz) > f:
        raise PreconditionViolation(f"{len(byz)} Byzantine nodes exceed f={f}")
    correct = sorted(p for p in proposals if p not in byz)
    current: dict[NodeId, bytes] = {p: proposals[p] for p in correct}
    messages: SyncMessages = []
    rnd = 0
    for phase in range(1, f + 2):
        rnd += 1
        received: dict[NodeId, list[bytes]] = {p: [current[p]] for p in correct}
        for src in range(n):
            honest = current.get(src)
            for dst in correct:
                if dst == src:
                    continue
                payload = honest
                if src in byz:
                    payload = byz[src](rnd, src, dst, honest)
                if payload is None:
                    continue
                messages.append((rnd, src, dst, _payload_size(payload)))
                received[dst].append(payload)
        tally: dict[NodeId, tuple[bytes, int]] = {}
        for p in correct:
            counts: dict[bytes, int] = {}
            for v in received[p]:
                counts[v] = counts.get(v, 0) + 1
            winner = min(sorted(counts), key=lambda v: (-counts[v], v))
            tally[p] = (winner, counts[winner])
        rnd += 1
        king = (phase - 1) % n
        king_value = tally[king][0] if king in tally else None
        for dst in correct:
            if dst == king:
                continue
            payload = king_value
            if king in byz:
                payload = byz[king](rnd, king, dst, king_value)
            if payload is not None:
                messages.append((rnd, king, dst, _payload_size(payload)))
            winner, count = tally[dst]
            if count > n // 2 + f:
                current[dst] = winner
            elif payload is not None:
                current[dst] = payload
            else:
                current[dst] = winner
        if king in tally:
            winner, count = tally[king]
            current[king] = winner
    return dict(current), messages


def run_eig(
    n: int,
    f: int,
    proposals: Mapping[NodeId, bytes],
    byz: Mapping[NodeId, ByzBehavior] | None = None,
    default: bytes | None = None,
) -> tuple[dict[NodeId, bytes], SyncMessages]:
    """EIG-style Byzantine agreement over a binary domain; needs n > 3f.

    f + 1 relay rounds build per-node information trees (labels are tuples of
    distinct ids); decisions resolve the tree bottom-up by strict majority
    with a fixed default.
    """
    byz = dict(byz or {})
    if 3 * f >= n:
        raise PreconditionViolation(f"EIG needs n > 3f, got n={n} f={f}")
    if len(byz) > f:
        raise PreconditionViolation(f"{len(byz)} Byzantine nodes exceed f={f}")
    correct = sorted(p for p in proposals if p not in byz)
    if default is None:
        default = min(sorted({proposals[p] for p in correct}))
    trees: dict[NodeId, dict[tuple, bytes]] = {p: {(): proposals[p]} for p in correct}
    messages: SyncMessages = []
    for rnd in range(1, f + 2):
        level = rnd - 1
        outgoing: dict[NodeId, dict[tuple, bytes]] = {}
        for src in range(n):
            if src in correct:
                outgoing[src] = {
                    label: v
                    for label, v in trees[src].items()
                    if len(label) == level and src not in label
                }
            elif src in byz:
                # Byzantine relays fabricate entries for every label a correct
                # node in their position would relay.
                sample = {
                    label: default
                    for label in _eig_labels(n, level)
                    if src not in label
                }
                outgoing[src] = sample
        for src in sorted(outgoing):
            for dst in correct:
                if dst == src:
                    continue
                payload: object = outgoing[src]
                if src in byz:
                    payload = byz[src](rnd, src, dst, dict(outgoing[src]))
                if payload is None:
                    continue
                if not isinstance(payload, dict):
                    raise TypeError("EIG round payload must be a label->value dict")
                messages.append((rnd, src, dst, _payload_size(payload)))
                for label, v in payload.items():
                    if len(label) == level and src not in label:
                        trees[dst][label + (src,)] = v
    def resolve(tree: dict[tuple, bytes], label: tuple) -> bytes:
        if len(label) == f + 1:
            return tree.get(label, default)
        child_vals = [
            resolve(tree, label + (q,)) for q in range(n) if q not in label
        ]
        counts: dict[bytes, int] = {}
        for v in child_vals:
            counts[v] = counts.get(v, 0) + 1
        best = min(sorted(counts), key=lambda v: (-counts[v], v))
        if counts[best] * 2 > len(child_vals):
            return best
        return default

    decisions = {p: resolve(trees[p], ()) for p in correct}
    return decisions, messages


def _eig_labels(n: int, length: int) -> list[tuple]:
    if length == 0:
        return [()]
    shorter = _eig_labels(n, length - 1)
    out = []
    for label in shorter:
        for q in range(n):
            if q not in label:
                out.append(label + (q,))
    return out
