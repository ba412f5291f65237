"""Scenario files, run summaries and golden-trace management.

Scenario files are canonical JSON: sorted keys, two-space indentation, byte
payloads written as {"text": ...} when they decode cleanly to printable
UTF-8 and {"hex": ...} otherwise.  Parsing accepts either spelling;
serialization always emits the canonical one, so parse-then-serialize is the
identity on canonical files and goldens stay byte-stable.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .core import (
    FailureModel,
    FullValue,
    MissingGolden,
    MsgKind,
    OptimizerConfig,
    ScenarioInvalid,
    Variant,
)
from .optimizer import DecisionPath
from .scenarios import (
    NamedScenario,
    check_expected,
    figure1_benign,
    figure2_classical,
    figure3_external,
    lower_bound_sigma,
)
from .simnet import (
    ArbitraryScript,
    Byzantine,
    Correct,
    CrashAt,
    Equivocate,
    Exhaustive,
    Fault,
    MimicHonest,
    Scenario,
    Schedule,
    Scripted,
    Seeded,
    Silent,
    Strategy,
    Trace,
    correct_live,
    run,
    validate_scenario,
)


# --- byte payload encoding --------------------------------------------------

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


# --- faults -----------------------------------------------------------------

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


# --- schedules --------------------------------------------------------------

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


# --- whole scenarios --------------------------------------------------------

def scenario_to_obj(sc: Scenario) -> dict:
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


def scenario_from_obj(obj: dict) -> Scenario:
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


def serialize_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_obj(sc), indent=2, sort_keys=True) + "\n"


def parse_scenario(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioInvalid(f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ScenarioInvalid("scenario document must be a JSON object")
    return scenario_from_obj(obj)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(sc))


# --- run summaries ----------------------------------------------------------

def _rounds_for(path: DecisionPath, variant: Variant) -> int:
    if path is DecisionPath.FAST:
        return 1
    return 3 if variant is Variant.PROOF_AWARE else 2


def summarize(sc: Scenario, trace: Trace) -> dict:
    """MetricsSummary document: decisions, paths, rounds, traffic, violations."""
    live = correct_live(sc.faults, trace.crashed)
    decisions = {}
    for node, rec in sorted(trace.decisions.items()):
        decisions[str(node)] = {
            "path": rec.path.value,
            "rounds": _rounds_for(rec.path, sc.cfg.variant),
            "value": _bytes_to_obj(rec.value),
        }
    fast_path = bool(live) and all(
        i in trace.decisions and trace.decisions[i].path is DecisionPath.FAST
        for i in live
    )
    return {
        "decisions": decisions,
        "fast_path": fast_path,
        "messages": trace.counters,
        "scenario": sc.name,
        "violations": [list(v) for v in trace.violations],
    }


def serialize_summary(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


# --- goldens ----------------------------------------------------------------

def golden_set() -> list[NamedScenario]:
    """The scripted scenarios whose traces are pinned byte-for-byte."""
    out: list[NamedScenario] = []
    for f in (1, 2):
        out.append(figure1_benign(f))
        out.append(figure2_classical(f))
        out.append(figure3_external(f))
    out.append(figure2_classical(1, byz_silent=True))
    out.append(figure3_external(1, preferred_valid=False))
    out.extend(lower_bound_sigma(1))
    return out


def write_goldens(directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    for ns in golden_set():
        trace = run(ns.scenario)
        ok, detail = check_expected(ns, trace)
        if not ok:
            raise ScenarioInvalid(f"golden {ns.name} failed its expectation: {detail}")
        spath = os.path.join(directory, f"{ns.name}.scenario.json")
        tpath = os.path.join(directory, f"{ns.name}.trace.jsonl")
        save_scenario(ns.scenario, spath)
        with open(tpath, "w", encoding="utf-8") as fh:
            fh.write(trace.serialize())
        written.extend([spath, tpath])
    return written


def verify_goldens(directory: str) -> list[tuple[str, bool, str]]:
    """Replay each checked-in scenario and diff its trace byte-for-byte."""
    if not os.path.isdir(directory):
        raise MissingGolden(f"golden directory {directory!r} does not exist")
    names = sorted(
        fn[: -len(".scenario.json")]
        for fn in os.listdir(directory)
        if fn.endswith(".scenario.json")
    )
    if not names:
        raise MissingGolden(f"no golden scenarios in {directory!r}")
    results: list[tuple[str, bool, str]] = []
    for name in names:
        spath = os.path.join(directory, f"{name}.scenario.json")
        tpath = os.path.join(directory, f"{name}.trace.jsonl")
        if not os.path.exists(tpath):
            results.append((name, False, "trace file missing"))
            continue
        sc = load_scenario(spath)
        fresh = run(sc).serialize()
        with open(tpath, "r", encoding="utf-8") as fh:
            pinned = fh.read()
        if fresh == pinned:
            results.append((name, True, "match"))
        else:
            results.append((name, False, _first_divergence(pinned, fresh)))
    return results


def _first_divergence(pinned: str, fresh: str) -> str:
    """The first line where two traces differ, both versions cut to a
    window around their first differing character."""
    old, new = pinned.split("\n") + [None], fresh.split("\n") + [None]
    row = next(i for i, (a, b) in enumerate(zip(old, new)) if a != b)
    a, b = old[row] or "", new[row] or ""
    col = next((j for j, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    cut = [line[max(0, col - 36) : col + 36] for line in (a, b)]
    return f"first divergence at line {row + 1}: golden {cut[0]!r} | fresh {cut[1]!r}"
