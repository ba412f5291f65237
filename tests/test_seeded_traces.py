"""Seeded runs pinned byte for byte by the sha256 of their serialized trace.

The goldens are all scripted, oblivious and without timers; these runs cover
what they leave out: seeded schedules, the proof-aware variant, the timeout
variant and the concrete bases, from n=5 up to n=33.  Each key names a
configuration, a base, n and a seed; the scenario behind it is rebuilt from
those alone.

Regenerate the digests (only in a change that means to move them) with
``PYTHONPATH=src python tests/test_seeded_traces.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from biased_consensus import (
    Byzantine,
    CrashAt,
    Correct,
    Equivocate,
    FailureModel,
    FullValue,
    OptimizerConfig,
    Scenario,
    Seeded,
    Silent,
    Variant,
    run,
)
from biased_consensus.harness import scenario_from_obj, scenario_to_obj

DIGESTS = Path(__file__).resolve().with_name("seeded_traces.json")
GOLDENS = Path(__file__).resolve().parent.parent / "goldens"

V = b"v"
U = b"u"
SEEDS = range(10)
# n -> the seeds run at that size.
SIZES = {5: SEEDS, 9: SEEDS, 16: SEEDS, 33: range(3)}

# name -> (model, variant, d with f = (n - 1) // d, config extras, concrete base)
_CLASSICAL = FailureModel.BYZANTINE_CLASSICAL
_EXTERNAL = FailureModel.BYZANTINE_EXTERNAL
_OBLIVIOUS = Variant.PROOF_OBLIVIOUS
CONFIGS = {
    "benign": (FailureModel.BENIGN, _OBLIVIOUS, 2, {}, "floodset"),
    "classical": (_CLASSICAL, _OBLIVIOUS, 4, {}, "phase_king"),
    "external": (_EXTERNAL, _OBLIVIOUS, 3, {}, "eig"),
    "external-proof-aware": (_EXTERNAL, Variant.PROOF_AWARE, 3, {}, "eig"),
    "classical-timeout": (_CLASSICAL, _OBLIVIOUS, 3, {"sync_timeout": 1.0}, "phase_king"),
    "classical-straw-man": (_CLASSICAL, _OBLIVIOUS, 3, {"straw_man": True}, "phase_king"),
    # Every faulty node equivocates, and only the concrete base runs.
    "classical-equivocating": (_CLASSICAL, _OBLIVIOUS, 4, {}, "phase_king"),
    "external-equivocating": (_EXTERNAL, _OBLIVIOUS, 3, {}, "eig"),
}
_EQUIVOCATING = ("classical-equivocating", "external-equivocating")


def _fault_kinds(name: str, model: FailureModel, base: str) -> list[str]:
    if name in _EQUIVOCATING:
        return ["equivocate"]
    kinds = ["crash"]
    if model is not FailureModel.BENIGN:
        kinds.append("silent")
        if base == "oracle":
            kinds.append("equivocate")
    if name == "classical-timeout":
        kinds.remove("crash")   # the timeout variant rejects crash faults
    return kinds


def build(name: str, base: str, n: int, seed: int) -> Scenario:
    model, variant, divisor, extras, concrete = CONFIGS[name]
    assert base in ("oracle", concrete)
    f = (n - 1) // divisor
    rng = random.Random(f"{name}/{base}/{n}/{seed}")
    aware = variant is Variant.PROOF_AWARE
    values = []
    for _ in range(n):
        val = V if rng.random() < 0.6 else U
        values.append(FullValue(val, b"proof-" + val if aware else b""))
    kinds = _fault_kinds(name, model, base)
    faults: list = [Correct() for _ in range(n)]
    for node in rng.sample(range(n), rng.randint(1, f)):
        kind = rng.choice(kinds)
        if kind == "crash":
            faults[node] = CrashAt(rng.choice((0, rng.randrange(1, 4 * n))))
        elif kind == "silent":
            faults[node] = Byzantine(Silent())
        else:
            targets = frozenset(rng.sample(range(n), n // 2))
            faults[node] = Byzantine(Equivocate(V, U, targets))
    validity = {}
    if model is FailureModel.BYZANTINE_EXTERNAL:
        validity = rng.choice(({}, {U: False}, {V: False}))
    cfg = OptimizerConfig(
        n,
        f,
        FullValue(V),
        model,
        variant=variant,
        binary_domain=base == "eig",
        **extras,
    )
    return Scenario(
        cfg=cfg,
        initial_values=tuple(values),
        faults=tuple(faults),
        schedule=Seeded(seed),
        validity=validity,
        base=base,
        name=f"{name}-{base}-n{n}-s{seed}",
    )


def _runs(name: str, base: str, n: int) -> bool:
    """Whether the corpus holds this configuration, base and size."""
    if base == "oracle":
        return name not in _EQUIVOCATING
    if base == "eig":
        return n <= 9   # EIG relays a tree of n^(f+1) labels
    return base != "phase_king" or n > 4 * ((n - 1) // CONFIGS[name][2])


def all_keys() -> list[tuple[str, str, int, int]]:
    return [
        (name, base, n, seed)
        for name, spec in CONFIGS.items()
        for base in ("oracle", spec[4])
        for n, seeds in SIZES.items()
        if _runs(name, base, n)
        for seed in seeds
    ]


def digest(key: tuple[str, str, int, int]) -> str:
    text = run(build(*key)).serialize()
    return hashlib.sha256(text.encode()).hexdigest()


def _label(key: tuple[str, str, int, int]) -> str:
    name, base, n, seed = key
    return f"{name}-{base}-n{n}-s{seed}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_seeded_traces_match_their_pinned_digests(name):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = [k for k in all_keys() if k[0] == name]
    drifted = [_label(k) for k in keys if digest(k) != pinned[_label(k)]]
    assert not drifted, f"seeded traces drifted: {drifted}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_an_untraced_run_keeps_everything_but_the_events(name):
    for key in all_keys():
        if key[0] != name:
            continue
        traced = run(build(*key))
        untraced = run(build(*key), record_trace=False)
        assert untraced.events == [] and traced.events, _label(key)
        for part in ("script", "decisions", "counters", "violations", "final_phases"):
            assert getattr(untraced, part) == getattr(traced, part), (_label(key), part)


def _header_round_trip(text: str) -> Scenario:
    """The scenario a trace's first line holds, read back; the line must be
    exactly what the codec writes for it."""
    head = text.split("\n", 1)[0]
    sc = scenario_from_obj(json.loads(head)["scenario"])
    assert json.dumps({"scenario": scenario_to_obj(sc)}, sort_keys=True) == head
    return sc


def test_every_trace_header_reads_back_to_the_scenario_that_ran():
    goldens = sorted(GOLDENS.glob("*.trace.jsonl"))
    assert len(goldens) == 11
    for path in goldens:
        assert _header_round_trip(path.read_text()).name == path.name.split(".")[0]
    for key in all_keys()[::10]:
        sc = build(*key)
        assert _header_round_trip(run(sc).serialize()) == sc, _label(key)


def test_the_pinned_runs_cover_every_fault_kind_and_base():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert set(pinned) == {_label(k) for k in all_keys()}
    seen = {
        (
            k[1] == "oracle",
            type(fl).__name__ if isinstance(fl, CrashAt) else type(fl.strategy).__name__,
        )
        for k in all_keys()
        for fl in build(*k).faults
        if not isinstance(fl, Correct)
    }
    assert seen == {
        (True, "CrashAt"),
        (True, "Silent"),
        (True, "Equivocate"),
        (False, "CrashAt"),
        (False, "Silent"),
        (False, "Equivocate"),
    }


if __name__ == "__main__":
    doc = {_label(k): digest(k) for k in all_keys()}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} digests to {DIGESTS}")
