"""Base-consensus layer: a refereeing oracle plus concrete sync-round protocols.

The oracle is the default base: it never exchanges messages, it just knows
which values a real protocol would be allowed to decide given the proposals
registered so far, and lets the adversary pick among them.  That turns the
base consensus into a worst-case branch point for exploration instead of a
source of incidental schedule noise.

For demonstrations over a real protocol three synchronous-round engines are
provided, each within its row of core.BOUNDS: flooding for crash faults (f + 1
rounds, f < n), phase king for the classical Byzantine model (n > 4f), and an
EIG-style protocol for the binary external model (n > 3f).
"""

from __future__ import annotations

import enum
from itertools import chain
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
    check_bound,
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
        live_ids = set(correct_live)
        live = [fv.val for p, fv in self.proposals.items() if p in live_ids]
        if not live:
            raise PreconditionViolation("no correct proposer registered")
        if flavor is BaseFlavor.BENIGN:
            # A proposer that crashed afterwards still got its value into the
            # protocol, so it stays a candidate and breaks unanimity.
            crashed_ids = set(crashed)
            live += [fv.val for p, fv in self.proposals.items() if p in crashed_ids]
        values = sorted(set(live))
        # Unanimous correct proposers bind even the external flavor, valid or not.
        if flavor is not BaseFlavor.EXTERNAL or len(values) == 1:
            return values
        if valid is None:
            raise PreconditionViolation("external flavor needs a validity predicate")
        ok = sorted(
            {fv.val for p, fv in self.proposals.items() if p in live_ids and valid(fv)}
        )
        if not ok:
            raise NoLegalValue("no valid proposal among correct proposers")
        return ok

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
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return sum(len(v) for v in payload.values())
    if isinstance(payload, (set, frozenset, list, tuple)):
        return sum(len(v) for v in payload)
    raise TypeError(f"unsized payload {payload!r}")


def run_floodset(
    n: int, f: int, proposals: Mapping[NodeId, bytes]
) -> tuple[dict[NodeId, bytes], SyncMessages]:
    """Flooding consensus for crash faults: f + 1 rounds, decide min.

    The simulator drops crashed proposers before the base starts, so every
    participant here is live for the whole instance.
    """
    known: dict[NodeId, set[bytes]] = {p: {v} for p, v in proposals.items()}
    messages: SyncMessages = []
    for rnd in range(1, f + 2):
        sends: list[tuple[NodeId, NodeId, frozenset[bytes], int]] = []
        for src in sorted(known):
            payload = frozenset(known[src])
            nbytes = _payload_size(payload)
            for dst in sorted(known):
                if dst != src:
                    sends.append((src, dst, payload, nbytes))
        for src, dst, payload, nbytes in sends:
            messages.append((rnd, src, dst, nbytes))
            known[dst].update(payload)
    decisions = {p: min(known[p]) for p in sorted(known)}
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
    check_bound("phase_king", n, f, PreconditionViolation)
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
            if src in byz:
                # A Byzantine vote may differ per receiver: size each one.
                for dst in correct:
                    payload = byz[src](rnd, src, dst, honest)
                    if payload is not None:
                        messages.append((rnd, src, dst, _payload_size(payload)))
                        received[dst].append(payload)
            elif honest is not None:
                nbytes = _payload_size(honest)
                for dst in correct:
                    if dst != src:
                        messages.append((rnd, src, dst, nbytes))
                        received[dst].append(honest)
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

    f + 1 relay rounds fill the information tree (labels are tuples of
    distinct ids) one level at a time.  A correct relay sends every node the
    same payload, so what correct nodes relay is kept once for all of them.
    The last round builds no leaves: each level-f label folds from counts of
    its children, and the levels above by strict majority with a fixed
    default.
    """
    byz = dict(byz or {})
    check_bound("eig", n, f, PreconditionViolation)
    if len(byz) > f:
        raise PreconditionViolation(f"{len(byz)} Byzantine nodes exceed f={f}")
    correct = sorted(p for p in proposals if p not in byz)
    if default is None:
        default = min(sorted({proposals[p] for p in correct}))
    # labels[L] lists every level-L label; the n - L children of labels[L][i]
    # are the run of labels[L + 1] that starts at i * (n - L).
    labels: list[list[tuple]] = [[()]]
    for _ in range(f):
        labels.append([lb + (q,) for lb in labels[-1] for q in range(n) if q not in lb])
    # A level's entries whose last relay is correct are the same in every
    # correct tree, so shared keeps them once; own[p] keeps the rest of p's
    # level: its proposal at level 0, then what Byzantine relays sent it.
    shared: dict[tuple, bytes] = {}
    own: dict[NodeId, dict[tuple, bytes]] = {p: {(): proposals[p]} for p in correct}
    messages: SyncMessages = []
    for rnd in range(1, f + 2):
        level = rnd - 1
        relayed: dict[tuple, bytes] = {}
        received: dict[NodeId, dict[tuple, bytes]] = {p: {} for p in correct}
        if rnd > f:
            # The last round builds no leaves.  A relay's size is the shared
            # bytes, less those under labels holding its sender, plus its own.
            total, holding = 0, [0] * n
            for lb, v in shared.items():
                total += len(v)
                for q in lb:
                    holding[q] += len(v)
        for src in range(n):
            if src in own:
                if rnd > f:
                    nbytes = total - holding[src] + sum(
                        len(v) for lb, v in own[src].items() if src not in lb
                    )
                else:
                    held = chain(shared.items(), own[src].items())
                    mine = {lb + (src,): v for lb, v in held if src not in lb}
                    nbytes = sum(map(len, mine.values()))   # the values, whatever the labels
                    relayed.update(mine)
                for dst in correct:
                    if dst != src:
                        messages.append((rnd, src, dst, nbytes))
            elif src in byz:
                # Byzantine relays fabricate entries for every label a correct
                # node in their position would relay.
                sample = {lb: default for lb in labels[level] if src not in lb}
                for dst in correct:
                    payload = byz[src](rnd, src, dst, dict(sample))
                    if payload is None:
                        continue
                    if not isinstance(payload, dict):
                        raise TypeError("EIG round payload must be a label->value dict")
                    messages.append((rnd, src, dst, _payload_size(payload)))
                    received[dst].update(
                        (lb + (src,), v)
                        for lb, v in payload.items()
                        if len(lb) == level and src not in lb
                    )
        if rnd <= f:
            shared, own = relayed, received

    # Fold each level-f label from counts of its children.  A correct child
    # would relay its own entry for the label, the same to every node, so the
    # correct children are counted once; a Byzantine child adds the leaf it
    # sent the folding node (received, from the last round).  A missing
    # entry counts as the default.
    k = n - f   # a level-L label has n - L children
    relays = set(range(n)).intersection(own)
    split = any(own.values())   # some level-f entry differs between correct trees
    tallies = []
    for lb in labels[f]:
        if lb in shared or not split:
            tallies.append({shared.get(lb, default): len(relays) - len(relays.intersection(lb))})
        else:
            tally: dict[bytes, int] = {}
            for q in relays.difference(lb):
                v = own[q].get(lb, default)
                tally[v] = tally.get(v, 0) + 1
            tallies.append(tally)

    def decide(leaves: dict[tuple, bytes]) -> bytes:
        vals = []
        for lb, tally in zip(labels[f], tallies):
            if leaves:
                tally = dict(tally)
                for b in byz:
                    v = leaves.get(lb + (b,))
                    if v is not None:
                        tally[v] = tally.get(v, 0) + 1
            for v, c in tally.items():
                if 2 * c > k:   # a strict majority of the k children
                    break
            else:
                v = default
            vals.append(v)
        for width in range(k + 1, n + 1):
            folded = []
            for chunk in map(sorted, zip(*[iter(vals)] * width)):   # runs of siblings
                mid = chunk[width // 2]   # a strict majority, if any, covers the middle
                folded.append(mid if 2 * chunk.count(mid) > width else default)
            vals = folded
        return vals[0]

    # One fold serves every node that got no Byzantine leaf entry.
    quiet = decide({}) if not all(received.values()) else None
    return {p: decide(received[p]) if received[p] else quiet for p in correct}, messages
