"""Scenario files, run summaries and golden-trace management.

Scenario files are canonical JSON: sorted keys, two-space indentation, byte
payloads written as {"text": ...} when they decode cleanly to printable
UTF-8 and {"hex": ...} otherwise.  Parsing accepts either spelling;
serialization always emits the canonical one, so parse-then-serialize is the
identity on canonical files and goldens stay byte-stable.

Each record of the format is described once, as a table of fields (_SCENARIO
and the tables it names); the writer, the reader with its defaults and
strict types, and the unknown-key check all read those tables.
"""

from __future__ import annotations

import dataclasses
import json
import os
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple

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
    MimicHonest,
    Scenario,
    Scripted,
    Seeded,
    Silent,
    Trace,
    correct_live,
    run,
    validate_scenario,
)


# --- values -----------------------------------------------------------------

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


class _Codec(NamedTuple):
    write: Callable[[Any], Any]         # value -> JSON
    read: Callable[[Any, str], Any]     # (JSON, the name errors use) -> value


def _same(value: Any, _what: str = "") -> Any:
    return value


def _checked(ok: Callable[[Any], bool], kind: str) -> _Codec:
    """A value written and read as it is, once ok(value) holds."""

    def read(value: Any, what: str) -> Any:
        if not ok(value):
            raise ScenarioInvalid(f"{what} must be {kind}, got {value!r}")
        return value

    return _Codec(_same, read)


def _count(least: int) -> _Codec:
    return _checked(lambda v: type(v) is int and v >= least, f"an integer >= {least}")


# No string, float or bool stands in for an integer, and no bool for a number.
_INT = _checked(lambda v: type(v) is int, "an integer")
_TIMEOUT = _checked(lambda v: v is None or type(v) in (int, float) and v > 0,
                    "null or a positive number")
_FLAG = _checked(lambda v: isinstance(v, bool), "true or false")
_TEXT = _checked(lambda v: isinstance(v, str), "a string")
_PAYLOAD = _Codec(_bytes_to_obj, _bytes_from_obj)
_PROOF = _Codec(bytes.hex, lambda value, _what: bytes.fromhex(value))


def _enum(cls: type) -> _Codec:
    return _Codec(attrgetter("value"), lambda value, _what: cls(value))


def _list(codec: Any) -> _Codec:
    return _Codec(
        lambda items: [codec.write(x) for x in items],
        lambda value, what: tuple(codec.read(x, what) for x in value),
    )


# --- records ----------------------------------------------------------------

class _Field(NamedTuple):
    """One key of a record: its codec, the raw JSON read like an input when
    the key is absent (the default, ..., marks a required key), and the name
    errors use when it is not the key ("{id}" stands for the record's raw
    id).  A field whose key is None is a record without a name, whose keys
    sit in this record's object and are checked with its keys."""

    key: str | None
    codec: Any
    default: Any = ...
    name: str = ""


class _Record:
    """A JSON object whose fields are, in table order, the constructor
    arguments of the dataclass make and the attributes the writer reads, or
    the items of a tuple when make is None.  Reading checks for unknown keys
    first, then reads the fields in that order."""

    def __init__(self, what: str, make: type | None, *fields: _Field) -> None:
        self.what, self.make, self.fields = what, make, fields
        get = attrgetter if make else itemgetter
        names = [a.name for a in dataclasses.fields(make)] if make else range(len(fields))
        self.writers = [(f.key, get(n), f.codec.write) for f, n in zip(fields, names, strict=True)]
        self.keys = {k for f in fields for k in ([f.key] if f.key else f.codec.keys)}

    def write(self, obj: Any) -> dict:
        out = {}
        for key, get, write in self.writers:
            if key:
                out[key] = write(get(obj))
            else:
                out.update(write(get(obj)))
        return out

    def read(self, obj: Any, _what: str = "") -> Any:
        if self.what:   # a record without a name is checked with its parent
            if not isinstance(obj, dict):
                raise ScenarioInvalid(f"{self.what}: expected an object, got {obj!r}")
            unknown = obj.keys() - self.keys
            if unknown:
                raise ScenarioInvalid(f"{self.what}: unknown keys {sorted(unknown)}")
        values = []
        for key, codec, default, name in self.fields:
            value = obj if key is None else obj.get(key, default)
            if value is ...:
                raise KeyError(key)
            values.append(codec.read(value, name.format_map(obj) if name else key))
        return self.make(*values) if self.make else tuple(values)


def _full_value(key: str, proof_key: str, name: str = "") -> _Field:
    """A FullValue spans two keys: its payload and its hex proof."""
    return _Field(None, _Record("", FullValue, _Field(key, _PAYLOAD, name=name),
                                _Field(proof_key, _PROOF, "")))


def _tagged(what: str, tag: str, classes: dict[str, tuple]) -> _Codec:
    """A record whose tag key names its class.  Each tag gives the class and
    the fields that are its constructor arguments; errors call the record
    "{tag} {what}"."""
    records = {
        name: _Record(f"{name} {what}", cls, *fields) for name, (cls, *fields) in classes.items()
    }
    names = {record.make: name for name, record in records.items()}
    for record in records.values():
        record.keys.add(tag)

    def write(obj: Any) -> dict:
        if type(obj) not in names:
            raise ScenarioInvalid(f"unknown {what} {obj!r}")
        return {tag: names[type(obj)], **records[names[type(obj)]].write(obj)}

    def read(obj: Any, _what: str) -> Any:
        name = obj.get(tag) if isinstance(obj, dict) else None
        if not isinstance(name, str) or name not in records:
            raise ScenarioInvalid(f"unknown {what} {tag} {name!r}")
        return records[name].read(obj)

    return _Codec(write, read)


# --- the scenario format ----------------------------------------------------

# A scripted send is the tuple (src, dst, kind, val, proof).
_SEND = _Record(
    "scripted send", None,
    _Field("src", _INT, name="send src"),
    _Field("dst", _INT, name="send dst"),
    _Field("msg", _enum(MsgKind)),
    _Field("val", _PAYLOAD),
    _Field("proof", _PROOF, ""),
)

_STRATEGY = _tagged("strategy", "kind", {
    "silent": (Silent,),
    "equivocate": (
        Equivocate,
        _Field("val_a", _PAYLOAD),
        _Field("val_b", _PAYLOAD),
        _Field("targets_a", _Codec(sorted, lambda value, what: frozenset(
            _INT.read(t, what) for t in value)), [], "targets_a entry"),
    ),
    "mimic_honest": (MimicHonest, _full_value("value", "proof")),
    "arbitrary": (ArbitraryScript, _Field("sends", _list(_SEND), [])),
})

_FAULT = _tagged("fault", "kind", {
    "correct": (Correct,),
    "crash": (CrashAt, _Field("at_event", _count(0), 0)),
    "byzantine": (Byzantine, _Field("strategy", _STRATEGY)),
})

_SCHEDULE = _tagged("schedule", "mode", {
    "seeded": (Seeded, _Field("seed", _INT)),
    "scripted": (Scripted, _Field("steps", _list(_Codec(list, lambda s, _what: tuple(s))), [])),
    "exhaustive": (
        Exhaustive,
        _Field("max_leaves", _count(1), 200_000),
        _Field("max_events", _count(1), 5_000_000),
    ),
})

# The system is the tuple (cfg, base, name); validate_scenario judges the base.
_SYSTEM = _Record(
    "system", None,
    _Field(None, _Record(
        "", OptimizerConfig,
        _Field("n", _INT),
        _Field("f", _INT),
        _full_value("preferred", "preferred_proof"),
        _Field("model", _enum(FailureModel)),
        _Field("variant", _enum(Variant), "proof_oblivious"),
        _Field("sync_timeout", _TIMEOUT, None),
        _Field("binary_domain", _FLAG, False),
        _Field("straw_man", _FLAG, False),
    )),
    _Field("base", _Codec(_same, _same), "oracle"),
    _Field("name", _TEXT, ""),
)

# A node is the tuple (id, initial value, fault).
_NODE = _Record(
    "node", None,
    _Field("id", _INT, name="node id"),
    _full_value("value", "proof", "node {id} value"),
    _Field("fault", _FAULT),
)

# A validity entry is the tuple (val, valid).
_ENTRY = _Record(
    "validity entry", None,
    _Field("val", _PAYLOAD, name="validity entry"),
    _Field("valid", _FLAG, None),
)


def _read_table(value: Any, _what: str) -> dict[bytes, bool]:
    table = {}
    for entry in value:
        val, ok = _ENTRY.read(entry)
        if val in table:
            raise ScenarioInvalid(f"validity entry {entry['val']} is listed twice")
        table[val] = ok
    return table


# Validity is the tuple (table, default); the writer lists the table sorted.
_VALIDITY = _Record(
    "validity", None,
    _Field("table", _Codec(lambda table: [_ENTRY.write(e) for e in sorted(table.items())],
                           _read_table), []),
    _Field("default", _FLAG, True),
)

# The document is the tuple (system, nodes, validity, schedule).
_SCENARIO = _Record(
    "scenario", None,
    _Field("system", _SYSTEM),
    _Field("nodes", _list(_NODE)),
    _Field("validity", _VALIDITY, {}),
    _Field("schedule", _SCHEDULE),
)


# --- whole scenarios --------------------------------------------------------

def scenario_to_obj(sc: Scenario) -> dict:
    nodes = [(i, sc.initial_values[i], sc.faults[i]) for i in range(sc.cfg.n)]
    system, validity = (sc.cfg, sc.base, sc.name), (sc.validity, sc.validity_default)
    return _SCENARIO.write((system, nodes, validity, sc.schedule))


def scenario_from_obj(obj: dict) -> Scenario:
    try:
        (cfg, base, name), nodes, (table, default), schedule = _SCENARIO.read(obj)
    except ScenarioInvalid:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioInvalid(f"malformed scenario document: {e}") from e
    nodes = sorted(nodes, key=itemgetter(0))
    if [i for i, _, _ in nodes] != list(range(cfg.n)):
        raise ScenarioInvalid("node ids must cover 0..n-1 exactly once")
    initial, faults = (tuple(node[k] for node in nodes) for k in (1, 2))
    return validate_scenario(Scenario(cfg, initial, faults, schedule, table, default, base, name))


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
        path = os.path.join(directory, f"{ns.name}.trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.serialize())
        written.append(path)
    return written


def verify_goldens(directory: str) -> list[tuple[str, bool, str]]:
    """Rerun the scenario each pinned trace opens with and diff the whole
    trace byte-for-byte.  A golden is named by its file, and its first line
    must hold a scenario of that name."""
    if not os.path.isdir(directory):
        raise MissingGolden(f"golden directory {directory!r} does not exist")
    files = sorted(fn for fn in os.listdir(directory) if fn.endswith(".trace.jsonl"))
    if not files:
        raise MissingGolden(f"no golden traces in {directory!r}")
    results: list[tuple[str, bool, str]] = []
    for fn in files:
        name = fn[: -len(".trace.jsonl")]
        with open(os.path.join(directory, fn), "r", encoding="utf-8") as fh:
            pinned = fh.read()
        try:
            sc = scenario_from_obj(json.loads(pinned.partition("\n")[0])["scenario"])
        except (ValueError, LookupError, TypeError, ScenarioInvalid) as e:
            results.append((name, False, f"{fn}: no scenario on its first line: {e!r}"))
            continue
        if sc.name != name:
            results.append((name, False, f"{fn}: its first line holds scenario {sc.name!r}"))
            continue
        fresh = run(sc).serialize()
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
