"""Vote bookkeeping and the per-model adoption rules.

The adoption rule answers one question: after collecting n - f first-round
votes without unanimity for the preferred value, should this node feed the
preferred value (rather than its own) into the base consensus?  Each failure
model has the weakest rule that still makes a fast decision elsewhere safe:

  benign              at least one vote for the preferred value
  classical Byzantine at least f + 1 votes for it
  external validity   it appears at all and passes the validity predicate

The straw-man configuration deliberately runs the benign presence rule under
the classical model (see rule_model); the lower-bound scenarios show why that
is unsound.
"""

from __future__ import annotations

from typing import Mapping

from .core import (
    FailureModel,
    FullValue,
    NodeId,
    OptimizerConfig,
    PreconditionViolation,
    ValidityPredicate,
)


class VoteSet:
    """First accepted vote per sender, with a running count per value.

    Later votes from a sender already present are rejected by add(); callers
    treat that as "ignore the duplicate".
    """

    __slots__ = ("entries", "_counts")

    def __init__(self) -> None:
        self.entries: dict[NodeId, bytes] = {}
        self._counts: dict[bytes, int] = {}

    def add(self, sender: NodeId, val: bytes) -> bool:
        if sender in self.entries:
            return False
        self.entries[sender] = val
        self._counts[val] = self._counts.get(val, 0) + 1
        return True

    def count_of(self, val: bytes) -> int:
        return self._counts.get(val, 0)

    def all_equal(self, val: bytes) -> bool:
        return self._counts.get(val, 0) == len(self.entries)

    def __contains__(self, sender: NodeId) -> bool:
        return sender in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "VoteSet":
        dup = VoteSet.__new__(VoteSet)
        dup.entries = dict(self.entries)
        dup._counts = dict(self._counts)
        return dup


def rule_model(cfg: OptimizerConfig) -> FailureModel:
    """The failure model whose vote rule a proof-oblivious node applies.

    The straw-man configuration swaps in the benign presence rule (a single
    preferred vote suffices); every other configuration uses its own model.
    """
    return FailureModel.BENIGN if cfg.straw_man else cfg.model


def _rule(
    model: FailureModel, f: int, valid: ValidityPredicate | None
) -> tuple[int, ValidityPredicate | None]:
    """The one model dispatch: how many carriers of the preferred payload the
    rule needs, and the predicate a carrier must pass (None: any carrier)."""
    if model is FailureModel.BENIGN:
        return 1, None
    if model is FailureModel.BYZANTINE_CLASSICAL:
        return f + 1, None
    if valid is None:
        raise PreconditionViolation("external model needs a validity predicate")
    return 1, valid


def adoption_criteria(
    model: FailureModel,
    votes: VoteSet,
    preferred: FullValue,
    f: int,
    n: int,
    valid: ValidityPredicate | None = None,
) -> bool:
    """Decide whether a node with n - f collected votes adopts the preferred value.

    Requires len(votes) >= n - f; the external model additionally evaluates
    the validity predicate on the locally held preferred value.
    """
    if len(votes) < n - f:
        raise PreconditionViolation(
            f"adoption rule needs {n - f} votes, have {len(votes)}"
        )
    need, check = _rule(model, f, valid)
    return votes.count_of(preferred.val) >= need and (
        check is None or check(preferred)
    )


def adoption_criteria_full(
    model: FailureModel,
    fullvals: Mapping[NodeId, FullValue],
    preferred: FullValue,
    f: int,
    n: int,
    valid: ValidityPredicate | None = None,
) -> FullValue | None:
    """Adoption rule over exchanged full values (payload + proof).

    Returns the full value to propose when the rule holds (the first received
    carrier of the preferred payload whose proof passes the validity
    predicate), else None.  Non-external models only count payloads.
    """
    if len(fullvals) < n - f:
        raise PreconditionViolation(
            f"adoption rule needs {n - f} full values, have {len(fullvals)}"
        )
    need, check = _rule(model, f, valid)
    carriers = [
        fv
        for fv in fullvals.values()
        if fv.val == preferred.val and (check is None or check(fv))
    ]
    return carriers[0] if len(carriers) >= need else None
