"""Adoption-predicate tests against independent brute-force oracles.

The oracle functions below restate each model's adoption rule from scratch
(straight off the three validity definitions) and never touch the library's
own predicate code.  Frozen counts were produced by running the oracles over
the full vote-tuple space first; the enumerations recompute them on every
run so a drift in either side fails loudly.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from biased_consensus import (
    FailureModel,
    FullValue,
    OptimizerConfig,
    VoteSet,
    adoption_criteria,
    adoption_criteria_full,
    always_valid,
    table_validity,
)
from biased_consensus.adoption import rule_model

V = b"v"
U = b"u"
W = b"w"
DOMAIN = (V, U, W)


def _oracle_benign(votes: tuple[bytes, ...], preferred: bytes) -> bool:
    return preferred in votes


def _oracle_classical(votes: tuple[bytes, ...], preferred: bytes, f: int) -> bool:
    return sum(1 for x in votes if x == preferred) >= f + 1


def _oracle_external(votes: tuple[bytes, ...], preferred: bytes, valid) -> bool:
    return preferred in votes and valid(preferred)


def _vote_set(vals: tuple[bytes, ...]) -> VoteSet:
    vs = VoteSet()
    for i, x in enumerate(vals):
        vs.add(i, x)
    return vs


# Oracle counts over the full {v,u,w}^threshold space, frozen after the
# first enumeration run.
FROZEN_ADOPT_COUNTS = {
    (FailureModel.BENIGN, 3, 1): 5,          # of 3^2 = 9 tuples
    (FailureModel.BYZANTINE_CLASSICAL, 5, 1): 33,   # of 3^4 = 81
    (FailureModel.BYZANTINE_EXTERNAL, 4, 1): 19,    # of 3^3 = 27
}


@pytest.mark.parametrize(
    "model,n,f",
    [
        (FailureModel.BENIGN, 3, 1),
        (FailureModel.BYZANTINE_CLASSICAL, 5, 1),
        (FailureModel.BYZANTINE_EXTERNAL, 4, 1),
    ],
)
def test_adoption_matches_oracle_exhaustively(model, n, f):
    threshold = n - f
    adopted = 0
    for vals in product(DOMAIN, repeat=threshold):
        if model is FailureModel.BENIGN:
            want = _oracle_benign(vals, V)
        elif model is FailureModel.BYZANTINE_CLASSICAL:
            want = _oracle_classical(vals, V, f)
        else:
            want = _oracle_external(vals, V, always_valid)
        got = adoption_criteria(
            model, _vote_set(vals), FullValue(V), f, n, always_valid
        )
        assert got == want, vals
        adopted += want
    assert adopted == FROZEN_ADOPT_COUNTS[(model, n, f)]


def test_external_rejects_invalid_preferred_everywhere():
    valid = table_validity({V: False, U: True, W: True})
    for vals in product(DOMAIN, repeat=3):
        assert not adoption_criteria(
            FailureModel.BYZANTINE_EXTERNAL, _vote_set(vals), FullValue(V), 1, 4, valid
        )


def test_external_validity_consults_predicate_not_presence():
    valid = table_validity({V: True})
    vs = _vote_set((U, U, V))
    assert adoption_criteria(
        FailureModel.BYZANTINE_EXTERNAL, vs, FullValue(V), 1, 4, valid
    )
    vs2 = _vote_set((U, U, U))
    assert not adoption_criteria(
        FailureModel.BYZANTINE_EXTERNAL, vs2, FullValue(V), 1, 4, valid
    )


@given(st.lists(st.sampled_from(DOMAIN), min_size=4, max_size=4))
def test_classical_adoption_implies_benign(vals):
    """The f+1-count rule is strictly stronger than the presence rule."""
    vs = _vote_set(tuple(vals))
    if adoption_criteria(
        FailureModel.BYZANTINE_CLASSICAL, vs, FullValue(V), 1, 5, always_valid
    ):
        assert adoption_criteria(
            FailureModel.BENIGN, vs, FullValue(V), 1, 5, always_valid
        )


@given(
    st.lists(st.sampled_from(DOMAIN), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=5),
)
def test_adding_preferred_votes_is_monotone(vals, extra):
    """Replacing non-preferred votes with v never flips adopt -> reject."""
    base = tuple(vals)
    n, f = len(base) + 1, 1
    before = adoption_criteria(
        FailureModel.BYZANTINE_CLASSICAL, _vote_set(base), FullValue(V), f, n, always_valid
    )
    boosted = list(base)
    for i in range(min(extra, len(boosted))):
        boosted[i] = V
    after = adoption_criteria(
        FailureModel.BYZANTINE_CLASSICAL, _vote_set(tuple(boosted)), FullValue(V), f, n, always_valid
    )
    if before:
        assert after


def test_vote_set_first_value_per_sender_wins():
    vs = VoteSet()
    assert vs.add(0, V)
    assert not vs.add(0, U)
    assert vs.count_of(V) == 1
    assert vs.count_of(U) == 0
    assert 0 in vs
    assert 1 not in vs


def test_vote_set_all_equal():
    vs = _vote_set((V, V, V))
    assert vs.all_equal(V)
    assert not vs.all_equal(U)
    assert not _vote_set((V, U, V)).all_equal(V)


def test_full_value_adoption_returns_a_valid_carrier():
    good = FullValue(V, b"p" * 4)
    bad = FullValue(V, b"x")
    fulls = {0: FullValue(U, b""), 1: bad, 2: good}
    valid = lambda fv: isinstance(fv, FullValue) and fv.proof.startswith(b"p")
    got = adoption_criteria_full(
        FailureModel.BYZANTINE_EXTERNAL, fulls, FullValue(V), 1, 4, valid
    )
    assert got == good
    assert got.proof == b"pppp"


def test_full_value_adoption_none_when_absent():
    fulls = {0: FullValue(U, b""), 1: FullValue(W, b""), 2: FullValue(U, b"")}
    got = adoption_criteria_full(
        FailureModel.BYZANTINE_EXTERNAL, fulls, FullValue(V), 1, 4, always_valid
    )
    assert got is None


def test_straw_man_runs_the_benign_presence_rule():
    def cfg(**kw):
        return OptimizerConfig(4, 1, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, **kw)

    assert rule_model(cfg()) is FailureModel.BYZANTINE_CLASSICAL
    assert rule_model(cfg(straw_man=True)) is FailureModel.BENIGN
    votes = _vote_set((V, U, U))
    assert not adoption_criteria(rule_model(cfg()), votes, FullValue(V), 1, 4)
    assert adoption_criteria(rule_model(cfg(straw_man=True)), votes, FullValue(V), 1, 4)
