"""The scenario codec against the one it replaced.

The reference below is the codec as it stood before each record of the
format became one table of fields: a writer and a reader function for
strategies, faults and schedules, and hand-written bodies for the whole
document, each restating the keys and defaults.  The test walks
the goldens and generated documents that use every tag, every flag,
sync_timeout, a validity table with a default of false, and text and hex
payloads.  For each key at any depth it deletes the key and sets it to each
of a list of wrong values, and it adds an unknown key to every object.  Both
codecs must then give the same canonical text and the same scenario, or the
same error type and message.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from biased_consensus import (
    ArbitraryScript,
    Byzantine,
    Correct,
    CrashAt,
    Equivocate,
    Exhaustive,
    FailureModel,
    FullValue,
    MimicHonest,
    MsgKind,
    OptimizerConfig,
    Scenario,
    ScenarioInvalid,
    Scripted,
    Seeded,
    Silent,
    Variant,
)
from biased_consensus.harness import scenario_from_obj, scenario_to_obj
from biased_consensus.simnet import Fault, Schedule, Strategy, validate_scenario

GOLDENS = Path(__file__).resolve().parent.parent / "goldens"
V = b"v"
U = b"u"


# --- the reference codec ----------------------------------------------------

def _bytes_to_obj(b: bytes) -> dict:
    try:
        text = b.decode("utf-8")
        if text.isprintable() and text.encode("utf-8") == b:
            return {"text": text}
    except UnicodeDecodeError:
        pass
    return {"hex": b.hex()}


def _bytes_from_obj(obj: Any, what: str) -> bytes:
    """A byte payload: an object with one key, text or hex, and a string."""
    if isinstance(obj, dict) and len(obj) == 1:
        ((key, value),) = obj.items()
        if key in ("text", "hex") and isinstance(value, str):
            return value.encode("utf-8") if key == "text" else bytes.fromhex(value)
    raise ScenarioInvalid(f"{what}: expected {{'text': str}} or {{'hex': str}}, got {obj!r}")


def _fields(obj: Any, what: str, *allowed: str) -> dict:
    """obj, checked to be an object whose keys are all among allowed."""
    if not isinstance(obj, dict):
        raise ScenarioInvalid(f"{what}: expected an object, got {obj!r}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioInvalid(f"{what}: unknown keys {unknown}")
    return obj


def _flag(obj: dict, key: str, default: bool | None) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioInvalid(f"{key} must be true or false, got {value!r}")
    return value


def _int(value: Any, what: str) -> int:
    """value, checked to be an integer: no string, float or bool stands in."""
    if type(value) is not int:
        raise ScenarioInvalid(f"{what} must be an integer, got {value!r}")
    return value


def _timeout(value: Any) -> float | None:
    """sync_timeout: null, or a positive number; a bool is no number here."""
    if value is None or type(value) in (int, float) and value > 0:
        return value
    raise ScenarioInvalid(f"sync_timeout must be null or a positive number, got {value!r}")


def _text(obj: dict, key: str) -> str:
    value = obj.get(key, "")
    if not isinstance(value, str):
        raise ScenarioInvalid(f"{key} must be a string, got {value!r}")
    return value


def _count(obj: dict, key: str, default: int, least: int) -> int:
    value = obj.get(key, default)
    if type(value) is not int or value < least:
        raise ScenarioInvalid(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _strategy_to_obj(s: Strategy) -> dict:
    if isinstance(s, Silent):
        return {"kind": "silent"}
    if isinstance(s, Equivocate):
        return {
            "kind": "equivocate",
            "targets_a": sorted(s.targets_a),
            "val_a": _bytes_to_obj(s.val_a),
            "val_b": _bytes_to_obj(s.val_b),
        }
    if isinstance(s, MimicHonest):
        return {
            "kind": "mimic_honest",
            "proof": s.value.proof.hex(),
            "value": _bytes_to_obj(s.value.val),
        }
    if isinstance(s, ArbitraryScript):
        return {
            "kind": "arbitrary",
            "sends": [
                {
                    "dst": dst,
                    "msg": kind.value,
                    "proof": proof.hex(),
                    "src": src,
                    "val": _bytes_to_obj(val),
                }
                for src, dst, kind, val, proof in s.sends
            ],
        }
    raise ScenarioInvalid(f"unknown strategy {s!r}")


def _strategy_from_obj(obj: dict) -> Strategy:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "silent":
        _fields(obj, "silent strategy", "kind")
        return Silent()
    if kind == "equivocate":
        _fields(obj, "equivocate strategy", "kind", "targets_a", "val_a", "val_b")
        return Equivocate(
            _bytes_from_obj(obj["val_a"], "val_a"),
            _bytes_from_obj(obj["val_b"], "val_b"),
            frozenset(_int(t, "targets_a entry") for t in obj.get("targets_a", [])),
        )
    if kind == "mimic_honest":
        _fields(obj, "mimic_honest strategy", "kind", "proof", "value")
        return MimicHonest(
            FullValue(
                _bytes_from_obj(obj["value"], "value"),
                bytes.fromhex(obj.get("proof", "")),
            )
        )
    if kind == "arbitrary":
        _fields(obj, "arbitrary strategy", "kind", "sends")
        sends = []
        for s in obj.get("sends", []):
            _fields(s, "scripted send", "dst", "msg", "proof", "src", "val")
            sends.append(
                (
                    _int(s["src"], "send src"),
                    _int(s["dst"], "send dst"),
                    MsgKind(s["msg"]),
                    _bytes_from_obj(s["val"], "val"),
                    bytes.fromhex(s.get("proof", "")),
                )
            )
        return ArbitraryScript(tuple(sends))
    raise ScenarioInvalid(f"unknown strategy kind {kind!r}")


def _fault_to_obj(fl: Fault) -> dict:
    if isinstance(fl, Correct):
        return {"kind": "correct"}
    if isinstance(fl, CrashAt):
        return {"at_event": fl.at_event, "kind": "crash"}
    if isinstance(fl, Byzantine):
        return {"kind": "byzantine", "strategy": _strategy_to_obj(fl.strategy)}
    raise ScenarioInvalid(f"unknown fault {fl!r}")


def _fault_from_obj(obj: dict) -> Fault:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "correct":
        _fields(obj, "correct fault", "kind")
        return Correct()
    if kind == "crash":
        _fields(obj, "crash fault", "kind", "at_event")
        return CrashAt(_count(obj, "at_event", 0, 0))
    if kind == "byzantine":
        _fields(obj, "byzantine fault", "kind", "strategy")
        return Byzantine(_strategy_from_obj(obj["strategy"]))
    raise ScenarioInvalid(f"unknown fault kind {kind!r}")


def _schedule_to_obj(sched: Schedule) -> dict:
    if isinstance(sched, Seeded):
        return {"mode": "seeded", "seed": sched.seed}
    if isinstance(sched, Scripted):
        return {"mode": "scripted", "steps": [list(s) for s in sched.steps]}
    if isinstance(sched, Exhaustive):
        return {
            "max_events": sched.max_events,
            "max_leaves": sched.max_leaves,
            "mode": "exhaustive",
        }
    raise ScenarioInvalid(f"unknown schedule {sched!r}")


def _schedule_from_obj(obj: dict) -> Schedule:
    mode = obj.get("mode") if isinstance(obj, dict) else None
    if mode == "seeded":
        _fields(obj, "seeded schedule", "mode", "seed")
        return Seeded(_int(obj["seed"], "seed"))
    if mode == "scripted":
        _fields(obj, "scripted schedule", "mode", "steps")
        return Scripted(tuple(tuple(s) for s in obj.get("steps", [])))
    if mode == "exhaustive":
        _fields(obj, "exhaustive schedule", "mode", "max_leaves", "max_events")
        return Exhaustive(
            _count(obj, "max_leaves", 200_000, 1),
            _count(obj, "max_events", 5_000_000, 1),
        )
    raise ScenarioInvalid(f"unknown schedule mode {mode!r}")


def _reference_scenario_to_obj(sc: Scenario) -> dict:
    cfg = sc.cfg
    return {
        "nodes": [
            {
                "fault": _fault_to_obj(sc.faults[i]),
                "id": i,
                "proof": sc.initial_values[i].proof.hex(),
                "value": _bytes_to_obj(sc.initial_values[i].val),
            }
            for i in range(cfg.n)
        ],
        "schedule": _schedule_to_obj(sc.schedule),
        "system": {
            "base": sc.base,
            "binary_domain": cfg.binary_domain,
            "f": cfg.f,
            "model": cfg.model.value,
            "n": cfg.n,
            "name": sc.name,
            "preferred": _bytes_to_obj(cfg.preferred.val),
            "preferred_proof": cfg.preferred.proof.hex(),
            "straw_man": cfg.straw_man,
            "sync_timeout": cfg.sync_timeout,
            "variant": cfg.variant.value,
        },
        "validity": {
            "default": sc.validity_default,
            "table": [
                {"val": _bytes_to_obj(val), "valid": ok}
                for val, ok in sorted(sc.validity.items())
            ],
        },
    }


def _reference_scenario_from_obj(obj: dict) -> Scenario:
    try:
        _fields(obj, "scenario", "nodes", "schedule", "system", "validity")
        system = _fields(
            obj["system"], "system", "base", "binary_domain", "f", "model", "n", "name",
            "preferred", "preferred_proof", "straw_man", "sync_timeout", "variant",
        )
        cfg = OptimizerConfig(
            n=_int(system["n"], "n"),
            f=_int(system["f"], "f"),
            preferred=FullValue(
                _bytes_from_obj(system["preferred"], "preferred"),
                bytes.fromhex(system.get("preferred_proof", "")),
            ),
            model=FailureModel(system["model"]),
            variant=Variant(system.get("variant", "proof_oblivious")),
            sync_timeout=_timeout(system.get("sync_timeout")),
            binary_domain=_flag(system, "binary_domain", False),
            straw_man=_flag(system, "straw_man", False),
        )
        nodes = sorted(
            (_fields(nd, "node", "fault", "id", "proof", "value") for nd in obj["nodes"]),
            key=lambda nd: _int(nd["id"], "node id"),
        )
        if [nd["id"] for nd in nodes] != list(range(cfg.n)):
            raise ScenarioInvalid("node ids must cover 0..n-1 exactly once")
        initial = tuple(
            FullValue(
                _bytes_from_obj(nd["value"], f"node {nd['id']} value"),
                bytes.fromhex(nd.get("proof", "")),
            )
            for nd in nodes
        )
        faults = tuple(_fault_from_obj(nd["fault"]) for nd in nodes)
        validity_obj = _fields(obj.get("validity", {}), "validity", "default", "table")
        validity = {}
        for entry in validity_obj.get("table", []):
            entry = _fields(entry, "validity entry", "val", "valid")
            val = _bytes_from_obj(entry["val"], "validity entry")
            if val in validity:
                raise ScenarioInvalid(f"validity entry {entry['val']} is listed twice")
            validity[val] = _flag(entry, "valid", None)
        sc = Scenario(
            cfg=cfg,
            initial_values=initial,
            faults=faults,
            schedule=_schedule_from_obj(obj["schedule"]),
            validity=validity,
            validity_default=_flag(validity_obj, "default", True),
            base=system.get("base", "oracle"),
            name=_text(system, "name"),
        )
    except ScenarioInvalid:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioInvalid(f"malformed scenario document: {e}") from e
    return validate_scenario(sc)


# --- the corpus -------------------------------------------------------------

# Wrong (and some well-formed) values for any key: nulls, bools, numbers, the
# empty and non-hex strings, a hex string, lists, objects and a hex payload.
WRONG = (None, True, False, 0, -1, 3, 2.5, "", "zz", "76", [], [0], ["x"], {}, {"hex": "76"})


def _generated() -> list[Scenario]:
    """Documents beyond the goldens: every tag, both flags, sync_timeout, a
    validity table with a default of false, and text and hex payloads."""
    classical = Scenario(
        cfg=OptimizerConfig(
            9, 2, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, binary_domain=True
        ),
        initial_values=(FullValue(V),) * 5 + (FullValue(b"\xff"),) * 4,
        faults=(Correct(),) * 7 + (CrashAt(3), Byzantine(Equivocate(V, U, frozenset({0, 4})))),
        schedule=Exhaustive(max_leaves=7, max_events=99),
        validity={V: True, b"\xff": False},
        validity_default=False,
        name="generated-classical",
    )
    proofs = Scenario(
        cfg=OptimizerConfig(
            7, 2, FullValue(V, b"pv"), FailureModel.BYZANTINE_EXTERNAL,
            variant=Variant.PROOF_AWARE,
        ),
        initial_values=(FullValue(V, b"pv"),) * 4 + (FullValue(U, b"\x00\xffpu"),) * 3,
        faults=(Correct(),) * 5 + (
            Byzantine(MimicHonest(FullValue(U, b"pu"))),
            Byzantine(ArbitraryScript(((6, 0, MsgKind.FULL, b"\xff\x00", b"\x01p"),))),
        ),
        schedule=Scripted((("deliver", 5, 0, "proposal", 0), ("crash", 1), ("pick", "00ff"))),
        validity={U: False},
        name="generated-proof-aware",
    )
    timeout = Scenario(
        cfg=OptimizerConfig(
            5, 1, FullValue(V), FailureModel.BYZANTINE_CLASSICAL, sync_timeout=2.5
        ),
        initial_values=(FullValue(V),) * 3 + (FullValue(U),) * 2,
        faults=(Correct(),) * 4 + (Byzantine(Silent()),),
        schedule=Seeded(7),
        base="phase_king",
        name="generated-timeout",
    )
    return [classical, proofs, timeout]


def _corpus() -> list[dict]:
    # A golden trace's first line is {"scenario": the document that ran}.
    heads = [p.read_text().split("\n", 1)[0] for p in sorted(GOLDENS.glob("*.trace.jsonl"))]
    docs = [json.loads(head)["scenario"] for head in heads]
    assert len(docs) == 11
    return docs + [_reference_scenario_to_obj(validate_scenario(sc)) for sc in _generated()]


def _objects(node: Any, path: tuple = ()):
    """Every object in a JSON document, at any depth, with its path."""
    if isinstance(node, dict):
        yield path, node
        children = list(node.items())
    else:
        children = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in children:
        yield from _objects(child, (*path, key))


def _mutations(doc: dict):
    """doc itself, then doc with each key in turn deleted or set to each wrong
    value, and with an unknown key added to each object; each is named by
    what it did.  Each mutation is undone before the next; the caller reads
    doc while it is in place."""
    yield "as written"
    for path, obj in list(_objects(doc)):
        obj["zz_unknown"] = 1
        yield f"zz_unknown added at {path}"
        del obj["zz_unknown"]
        for key in list(obj):
            old = obj.pop(key)
            yield f"{(*path, key)} deleted"
            for wrong in WRONG:
                obj[key] = wrong
                yield f"{(*path, key)} set to {wrong!r}"
            obj[key] = old


def _outcome(read, write, obj: dict) -> tuple:
    """The canonical text and scenario read from obj, or the error."""
    try:
        sc = read(obj)
    except Exception as e:   # the type and message are what is compared
        return type(e).__name__, str(e)
    return json.dumps(write(sc), indent=2, sort_keys=True), sc


def test_the_codec_matches_its_reference_on_mutated_documents():
    compared, accepted = 0, 0
    for doc in _corpus():
        for mutation in _mutations(doc):
            reference = _outcome(
                _reference_scenario_from_obj, _reference_scenario_to_obj, doc
            )
            outcome = _outcome(scenario_from_obj, scenario_to_obj, doc)
            assert outcome == reference, (doc["system"].get("name"), mutation)
            compared += 1
            accepted += isinstance(reference[1], Scenario)
    # The walk reaches both outcomes in bulk: documents read and refused.
    assert accepted > 500 and compared - accepted > 10_000
