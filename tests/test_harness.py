"""Scenario files, summaries, goldens, and the command-line front end.

CLI exit codes under test: 0 clean, 1 operator error (bad usage, missing
file, malformed document), 2 protocol trouble (violation found, witness
written, or a non-quiescent run).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from biased_consensus import (
    ArbitraryScript,
    Byzantine,
    Correct,
    CrashAt,
    Exhaustive,
    FailureModel,
    FullValue,
    MissingGolden,
    MsgKind,
    OptimizerConfig,
    Scenario,
    ScenarioInvalid,
    Scripted,
    Seeded,
    Variant,
    run,
)
from biased_consensus.harness import (
    golden_set,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_obj,
    serialize_scenario,
    serialize_summary,
    summarize,
    verify_goldens,
    write_goldens,
)

V = b"v"
U = b"u"
REPO = Path(__file__).resolve().parent.parent
REPO_GOLDENS = REPO / "goldens"
REPO_SRC = REPO / "src"


def test_parse_serialize_is_the_identity_on_canonical_files():
    for ns in golden_set():
        text = serialize_scenario(ns.scenario)
        again = serialize_scenario(parse_scenario(text))
        assert again == text, ns.name


def test_parsed_scenarios_run_identically_to_their_sources():
    for ns in golden_set()[:4]:
        reparsed = parse_scenario(serialize_scenario(ns.scenario))
        assert run(reparsed).serialize() == run(ns.scenario).serialize()


def test_byte_payload_spellings():
    cfg = OptimizerConfig(3, 1, FullValue(b"\xff\x00"), FailureModel.BENIGN)
    sc = Scenario(
        cfg=cfg,
        initial_values=(FullValue(b"\xff\x00"), FullValue(V), FullValue(V)),
        faults=(Correct(),) * 3,
        schedule=Seeded(1),
    )
    obj = scenario_to_obj(sc)
    assert obj["system"]["preferred"] == {"hex": "ff00"}
    nodes = sorted(obj["nodes"], key=lambda nd: nd["id"])
    assert nodes[0]["value"] == {"hex": "ff00"}
    assert nodes[1]["value"] == {"text": "v"}
    assert serialize_scenario(parse_scenario(serialize_scenario(sc))) == (
        serialize_scenario(sc)
    )


def test_crash_arbitrary_and_exhaustive_entries_round_trip():
    cfg = OptimizerConfig(9, 2, FullValue(V), FailureModel.BYZANTINE_CLASSICAL)
    sends = ((8, 0, MsgKind.PROPOSAL, U, b""), (8, 1, MsgKind.FULL, V, b"\x01p"))
    sc = Scenario(
        cfg=cfg,
        initial_values=(FullValue(V),) * 9,
        faults=(Correct(),) * 7 + (CrashAt(3), Byzantine(ArbitraryScript(sends))),
        schedule=Exhaustive(max_leaves=7, max_events=99),
    )
    text = serialize_scenario(sc)
    nodes = sorted(json.loads(text)["nodes"], key=lambda nd: nd["id"])
    assert nodes[7]["fault"] == {"at_event": 3, "kind": "crash"}
    assert nodes[8]["fault"]["strategy"]["sends"][1] == {
        "dst": 1, "msg": "full", "proof": "0170", "src": 8, "val": {"text": "v"},
    }
    again = parse_scenario(text)
    assert again == sc
    assert serialize_scenario(again) == text


@pytest.mark.parametrize(
    "mangle",
    [
        lambda obj: "{ not json",
        lambda obj: json.dumps(["a", "list"]),
        lambda obj: "{}",
        lambda obj: _set(obj, ("system", "model"), "quantum"),
        lambda obj: _set(obj, ("schedule", "mode"), "wishful"),
        lambda obj: _set(obj, ("nodes", 0, "id"), 1),
        lambda obj: _set(obj, ("nodes", 0, "fault", "kind"), "gremlin"),
        # f = 0 leaves the document well-formed but the Byzantine faults in
        # it now exceed the tolerance, so validation must still reject it.
        lambda obj: _set(obj, ("system", "f"), 0),
    ],
)
def test_malformed_documents_are_rejected(mangle):
    base = json.loads(serialize_scenario(golden_set()[1].scenario))
    text = mangle(base)
    if not isinstance(text, str):
        text = json.dumps(text)
    with pytest.raises(ScenarioInvalid):
        parse_scenario(text)


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("system", "binary_domain"), "no", "binary_domain must be true or false"),
        (("nodes", 0, "fault"), {"kind": "crash", "at_evnet": 7}, r"unknown keys \['at_evnet'\]"),
        (("nodes", 0, "fault"), {}, "unknown fault kind None"),
        (("schedule",), {"mode": "exhaustive", "max_leaves": -1}, "max_leaves must be"),
        (("system", "colour"), "blue", r"system: unknown keys \['colour'\]"),
    ],
)
def test_input_the_parser_once_read_quietly_is_rejected(path, value, match):
    # Each document here parsed without complaint before: as binary_domain
    # True, CrashAt(0), Correct(), a negative leaf cap, and no colour.
    base = json.loads(serialize_scenario(golden_set()[0].scenario))
    with pytest.raises(ScenarioInvalid, match=match):
        parse_scenario(json.dumps(_set(base, path, value)))


_SEND = {"dst": 0, "msg": "proposal", "proof": "", "src": 4, "val": {"text": "u"}}
_BYZ4 = ("nodes", 4, "fault", "strategy")   # node 4 is Byzantine in goldens 1 and 6


def _arbitrary(**send) -> dict:
    return {"kind": "arbitrary", "sends": [{**_SEND, **send}]}


@pytest.mark.parametrize(
    "golden, path, value, match",
    [
        # Unknown keys in a strategy, a scripted send or a node entry.
        (6, (*_BYZ4, "loud"), 1, r"silent strategy: unknown keys \['loud'\]"),
        (1, (*_BYZ4, "target_a"), [0], r"equivocate strategy: unknown keys \['target_a'\]"),
        (8, ("nodes", 3, "fault", "strategy", "vale"), {"text": "v"},
         r"mimic_honest strategy: unknown keys \['vale'\]"),
        (1, _BYZ4, {"kind": "arbitrary", "sends": [], "at": 0},
         r"arbitrary strategy: unknown keys \['at'\]"),
        (1, _BYZ4, _arbitrary(kind="x"), r"scripted send: unknown keys \['kind'\]"),
        (0, ("nodes", 1, "faults"), {"kind": "correct"}, r"node: unknown keys \['faults'\]"),
        # Integer fields given as a string, a float or a bool.
        (0, ("nodes", 1, "id"), "1", "node id must be an integer, got '1'"),
        (0, ("nodes", 1, "id"), 1.0, "node id must be an integer, got 1.0"),
        (0, ("nodes", 1, "id"), True, "node id must be an integer, got True"),
        (1, (*_BYZ4, "targets_a"), ["0"], "targets_a entry must be an integer, got '0'"),
        (1, (*_BYZ4, "targets_a"), [0.0], "targets_a entry must be an integer, got 0.0"),
        (1, _BYZ4, _arbitrary(src="4"), "send src must be an integer, got '4'"),
        (1, _BYZ4, _arbitrary(dst=False), "send dst must be an integer, got False"),
        (0, ("schedule",), {"mode": "seeded", "seed": "7"}, "seed must be an integer, got '7'"),
        (0, ("schedule",), {"mode": "seeded", "seed": 7.5}, "seed must be an integer, got 7.5"),
        (0, ("system", "n"), 3.0, "n must be an integer, got 3.0"),
        (0, ("system", "f"), "1", "f must be an integer, got '1'"),
        (0, ("system", "f"), True, "f must be an integer, got True"),
        # A timeout that is no positive number, and a name that is no string.
        (1, ("system", "sync_timeout"), False,
         "sync_timeout must be null or a positive number, got False"),
        (1, ("system", "sync_timeout"), "soon",
         "sync_timeout must be null or a positive number, got 'soon'"),
        (1, ("system", "sync_timeout"), 0, "sync_timeout must be null or a positive number, got 0"),
        (1, ("system", "sync_timeout"), -3, "sync_timeout must be null or a positive number, got -3"),
        (1, ("system", "sync_timeout"), [1],
         r"sync_timeout must be null or a positive number, got \[1\]"),
        (0, ("system", "name"), 12, "name must be a string, got 12"),
        # A byte payload with a non-string value, or other keys beside it.
        (0, ("nodes", 1, "value"), {"hex": 76},
         r"node 1 value: expected \{'text': str\} or \{'hex': str\}, got \{'hex': 76\}"),
        (0, ("nodes", 1, "value"), {"text": 7}, r"node 1 value: .*got \{'text': 7\}"),
        (0, ("system", "preferred"), {"text": "v", "hex": "75", "colour": 1},
         r"preferred: expected \{'text': str\} or \{'hex': str\}"),
        (0, ("system", "preferred"), {"text": "v", "hex": "76"}, r"preferred: expected"),
        (0, ("system", "preferred"), {}, r"preferred: expected"),
        # A validity entry with an unknown key, or a payload listed twice.
        (7, ("validity", "table", 0, "colour"), 1, r"validity entry: unknown keys \['colour'\]"),
        (7, ("validity", "table"),
         [{"val": {"text": "v"}, "valid": False}, {"val": {"text": "v"}, "valid": True}],
         r"validity entry \{'text': 'v'\} is listed twice"),
        (7, ("validity", "table"),
         [{"val": {"text": "v"}, "valid": False}, {"val": {"hex": "76"}, "valid": False}],
         r"validity entry \{'hex': '76'\} is listed twice"),
        # An equivocation target that names no node.
        (1, (*_BYZ4, "targets_a"), [99],
         r"node 4 equivocates to \[99\]: no ids in 0..4"),
        # A scripted send under another node's id, or to no node.
        (1, _BYZ4, _arbitrary(src=2, dst=99), "node 4 tried to emit as node 2"),
        (1, _BYZ4, _arbitrary(src=4, dst=99), "bad destination in scripted send"),
    ],
)
def test_strategies_nodes_and_integers_are_read_strictly(golden, path, value, match):
    base = json.loads(serialize_scenario(golden_set()[golden].scenario))
    with pytest.raises(ScenarioInvalid, match=match):
        parse_scenario(json.dumps(_set(base, path, value)))


@pytest.mark.parametrize("timeout", [2.5, 3])
def test_a_positive_timeout_parses_and_round_trips(timeout):
    base = json.loads(serialize_scenario(golden_set()[1].scenario))
    base["system"]["sync_timeout"] = timeout
    sc = parse_scenario(json.dumps(base))
    assert sc.cfg.sync_timeout == timeout
    assert json.loads(serialize_scenario(sc)) == base


def test_a_well_formed_arbitrary_strategy_still_parses():
    base = json.loads(serialize_scenario(golden_set()[1].scenario))
    _set(base, _BYZ4, _arbitrary())
    sc = parse_scenario(json.dumps(base))
    assert sc.faults[4].strategy.sends == ((4, 0, MsgKind.PROPOSAL, U, b""),)


@pytest.mark.parametrize(
    "step",
    [
        ["jump", 0],                             # an unknown tag
        ["crash"],                               # the wrong arity
        ["deliver", 0, 1, "proposal", 0, 0],
        ["pick"],
        ["timer", "0"],                          # a non-int node id
        ["deliver", 0, [1], "proposal", 0],
        ["decision", 5],                         # a node id outside 0..n-1
        ["deliver", 0, 1, "proposal", 1.0],      # a non-int k
        ["drop", 0, 1, "proposal", True],
        ["deliver", 0, 1, "proposal", -1],       # a k below 0
        ["deliver", 0, 1, "gossip", 0],          # a kind that is no MsgKind
        ["drop", 0, 1, ["proposal"]],
        ["pick", "not hex"],                     # a pick that is no hex string
        ["pick", 118],
        ["pick", "7"],
    ],
)
def test_malformed_script_steps_are_rejected(step):
    base = json.loads(serialize_scenario(golden_set()[1].scenario))
    base["schedule"]["steps"].insert(2, step)
    with pytest.raises(ScenarioInvalid, match=r"malformed script step 2: "):
        parse_scenario(json.dumps(base))


def _set(obj, path, value):
    here = obj
    for key in path[:-1]:
        here = here[key]
    here[path[-1]] = value
    return obj


def test_summary_reports_paths_rounds_and_traffic():
    ns = next(n for n in golden_set() if "figure2-classical-f1" == n.name)
    trace = run(ns.scenario)
    summary = summarize(ns.scenario, trace)
    assert summary["scenario"] == ns.name
    assert summary["fast_path"] is False
    rounds = {d["path"]: d["rounds"] for d in summary["decisions"].values()}
    assert rounds == {"fast": 1, "base": 2}
    assert summary["messages"] == trace.counters
    assert summary["violations"] == []
    parsed = json.loads(serialize_summary(summary))
    assert parsed == summary


def test_summary_counts_the_exchange_round_for_the_proof_variant():
    cfg = OptimizerConfig(
        4,
        1,
        FullValue(V, b"pv"),
        FailureModel.BYZANTINE_EXTERNAL,
        variant=Variant.PROOF_AWARE,
    )
    sc = Scenario(
        cfg=cfg,
        initial_values=(
            FullValue(V, b"pv"),
            FullValue(U, b"pu"),
            FullValue(V, b"pv"),
            FullValue(U, b"pu"),
        ),
        faults=(Correct(),) * 4,
        schedule=Seeded(2),
    )
    summary = summarize(sc, run(sc))
    base_rounds = {
        d["rounds"] for d in summary["decisions"].values() if d["path"] == "base"
    }
    assert base_rounds == {3}


def test_goldens_write_verify_and_corruption(tmp_path):
    written = write_goldens(str(tmp_path))
    assert len(written) == len(golden_set())
    names = sorted(f"{ns.name}.trace.jsonl" for ns in golden_set())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert all(ok for _name, ok, _detail in verify_goldens(str(tmp_path)))
    victim = tmp_path / "figure1-benign-f1.trace.jsonl"
    pinned = victim.read_text()
    victim.write_text(pinned + " ")
    results = dict(
        (name, ok) for name, ok, _ in verify_goldens(str(tmp_path))
    )
    assert results["figure1-benign-f1"] is False
    # A first line that holds no scenario, or another one, fails and names the file.
    head, body = pinned.split("\n", 1)
    assert '"n": 3' in head and '"name": "figure1-benign-f1"' in head
    for bad in (
        "",
        "not json",
        "[]",
        '{"meta": {}}',
        head.replace('"n": 3', '"n": 4'),
        head.replace('"name": "figure1-benign-f1"', '"name": "figure1-benign-f2"'),
    ):
        victim.write_text(bad + "\n" + body)
        details = {name: (ok, detail) for name, ok, detail in verify_goldens(str(tmp_path))}
        ok, detail = details["figure1-benign-f1"]
        assert not ok and detail.startswith("figure1-benign-f1.trace.jsonl: "), (bad, detail)
        assert sum(not ok for ok, _ in details.values()) == 1


def test_a_drifted_golden_names_its_first_differing_line(tmp_path):
    shutil.copytree(REPO_GOLDENS, tmp_path, dirs_exist_ok=True)
    victim = tmp_path / "figure1-benign-f1.trace.jsonl"
    lines = victim.read_text().split("\n")
    edited = lines[4].replace('"val": "76"', '"val": "75"')
    assert edited != lines[4]
    victim.write_text("\n".join(lines[:4] + [edited] + lines[5:]))
    details = {name: (ok, detail) for name, ok, detail in verify_goldens(str(tmp_path))}
    ok, detail = details["figure1-benign-f1"]
    assert not ok
    assert detail.startswith("first divergence at line 5: golden ")
    golden, fresh = detail.split(" | fresh ")
    assert '"val": "75"' in golden and '"val": "76"' in fresh
    assert len(golden) < 120 and len(fresh) < 120   # cut to a window, not the whole line
    assert sum(not ok for ok, _ in details.values()) == 1


def test_goldens_missing_directory(tmp_path):
    with pytest.raises(MissingGolden):
        verify_goldens(str(tmp_path / "nowhere"))
    (tmp_path / "empty").mkdir()
    with pytest.raises(MissingGolden):
        verify_goldens(str(tmp_path / "empty"))


def test_checked_in_goldens_still_replay():
    results = verify_goldens(str(REPO_GOLDENS))
    assert results and all(ok for _name, ok, _detail in results)


# --- command-line interface --------------------------------------------------


def _cli(*argv, cwd):
    """Run this checkout's ``bcsim`` in a child process started in ``cwd``.

    The repo's ``src/`` leads the child's ``PYTHONPATH`` as an absolute path,
    so a relative ``PYTHONPATH=src`` or an installed copy of the package
    cannot change which code runs.
    """
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(REPO_SRC) + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "biased_consensus.cli", *argv],
        cwd=str(cwd),
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )


def _assert_cli_started(proc):
    """The CLI itself ran: the interpreter neither failed the import nor crashed."""
    assert "ModuleNotFoundError" not in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


def test_cli_scenario_then_clean_run(tmp_path):
    out = _cli("scenario", "--name", "figure1", "--f", "1", "--out", "figs", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    spath = tmp_path / "figs" / "figure1-benign-f1.scenario.json"
    assert spath.exists()
    load_scenario(str(spath))
    ran = _cli(
        "run",
        "--scenario",
        str(spath),
        "--seed",
        "3",
        "--trace",
        "t.jsonl",
        "--summary",
        "s.json",
        cwd=tmp_path,
    )
    assert ran.returncode == 0, ran.stderr
    assert "ok: all invariants hold" in ran.stdout
    assert (tmp_path / "t.jsonl").exists()
    summary = json.loads((tmp_path / "s.json").read_text())
    assert "fast_path" in summary


def _violation_kinds(stdout: str) -> list[str]:
    prefix = "VIOLATION "
    return [line[len(prefix):].split(":")[0] for line in stdout.splitlines()
            if line.startswith(prefix)]


def _body(path: Path) -> str:
    """A serialized trace after its first line, the scenario that ran."""
    return path.read_text().split("\n", 1)[1]


def test_cli_violation_run_writes_a_replayable_witness(tmp_path):
    assert _cli("scenario", "--name", "sigma", "--f", "1", cwd=tmp_path).returncode == 0
    spath = tmp_path / "sigma3-f1.scenario.json"
    first = _cli("run", "--scenario", str(spath), "--trace", "first.jsonl", cwd=tmp_path)
    assert first.returncode == 2
    assert "VIOLATION classical-validity" in first.stdout
    witness = tmp_path / "witness-sigma3-f1.json"
    assert witness.exists()
    # The witness is the scenario with the run's schedule recorded as its script.
    sc = load_scenario(str(witness))
    assert sc.schedule == Scripted(tuple(run(load_scenario(str(spath))).script))
    replay = _cli(
        "run", "--scenario", "witness-sigma3-f1.json", "--trace", "replay.jsonl",
        "--witness-out", "again.json", cwd=tmp_path
    )
    assert replay.returncode == 2
    assert _violation_kinds(replay.stdout) == _violation_kinds(first.stdout)
    assert _body(tmp_path / "replay.jsonl") == _body(tmp_path / "first.jsonl")
    assert (tmp_path / "again.json").read_text() == witness.read_text()


def test_cli_explore_exit_codes(tmp_path):
    assert _cli("scenario", "--name", "sigma", "--f", "1", cwd=tmp_path).returncode == 0
    dirty = _cli(
        "explore",
        "--scenario",
        str(tmp_path / "sigma3-f1.scenario.json"),
        "--witness-out",
        "w.json",
        cwd=tmp_path,
    )
    assert dirty.returncode == 2
    assert (tmp_path / "w.json").exists()
    # The explorer's witness is a scenario file too, and replays its violation.
    replay = _cli("run", "--scenario", "w.json", cwd=tmp_path)
    assert replay.returncode == 2
    found = {line.split(":")[0].strip() for line in dirty.stdout.splitlines()[1:]
             if line.startswith("  ")}
    kinds = set(_violation_kinds(replay.stdout))
    assert kinds and kinds <= found, (kinds, found)
    assert _cli("scenario", "--name", "figure1", "--f", "1", cwd=tmp_path).returncode == 0
    clean = _cli(
        "explore",
        "--scenario",
        str(tmp_path / "figure1-benign-f1.scenario.json"),
        cwd=tmp_path,
    )
    assert clean.returncode == 0
    assert "no violations" in clean.stdout
    assert re.search(r"states=[1-9]\d* cache_hits=\d+", clean.stdout)


def test_cli_rejects_a_bad_event_budget(tmp_path, monkeypatch):
    assert _cli("scenario", "--name", "figure1", "--f", "1", cwd=tmp_path).returncode == 0
    monkeypatch.setenv("SIM_EVENT_BUDGET", "abc")
    out = _cli(
        "run", "--scenario", str(tmp_path / "figure1-benign-f1.scenario.json"), cwd=tmp_path
    )
    _assert_cli_started(out)
    assert out.returncode == 1
    assert out.stderr.startswith("error: SIM_EVENT_BUDGET")
    assert "'abc'" in out.stderr


def test_cli_campaign(tmp_path):
    assert _cli("scenario", "--name", "figure1", "--f", "1", cwd=tmp_path).returncode == 0
    # A campaign runs the file's base and its validity default, not the
    # oracle and "everything valid": the phase-king runs send base traffic,
    # and the external runs decide u, the one value the table lets through.
    king = Scenario(
        cfg=OptimizerConfig(5, 1, FullValue(V), FailureModel.BYZANTINE_CLASSICAL),
        initial_values=tuple(FullValue(x) for x in (V, V, U, U, V)),
        faults=(Correct(),) * 5,
        schedule=Seeded(1),
        base="phase_king",
    )
    external = Scenario(
        cfg=OptimizerConfig(4, 1, FullValue(V), FailureModel.BYZANTINE_EXTERNAL),
        initial_values=tuple(FullValue(x) for x in (V, V, U, U)),
        faults=(Correct(),) * 4,
        schedule=Seeded(1),
        validity={U: True},
        validity_default=False,
    )
    save_scenario(king, str(tmp_path / "king.json"))
    save_scenario(external, str(tmp_path / "external.json"))
    for spath, holds in [
        (tmp_path / "figure1-benign-f1.scenario.json", lambda doc: True),
        (tmp_path / "king.json", lambda doc: doc["messages"]["base"]["msgs"] > 0),
        (tmp_path / "external.json", lambda doc: set(doc["decided_values"]) == {U.hex()}),
    ]:
        out = _cli(
            "campaign",
            "--scenario",
            str(spath),
            "--runs",
            "40",
            "--seed",
            "3",
            "--summary",
            "c.json",
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["runs"] == 40
        assert doc["violation_runs"] == 0
        assert 0.0 <= doc["fast_rate"] <= 1.0
        assert holds(doc), (spath.name, doc)


def test_cli_verify_goldens(tmp_path):
    ok = _cli("verify-goldens", "--dir", str(REPO_GOLDENS), cwd=tmp_path)
    assert ok.returncode == 0, ok.stderr
    shutil.copytree(REPO_GOLDENS, tmp_path / "edited")
    victim = tmp_path / "edited" / "sigma1-f1.trace.jsonl"
    victim.write_text("{}\n" + victim.read_text().split("\n", 1)[1])
    edited = _cli("verify-goldens", "--dir", "edited", cwd=tmp_path)
    assert edited.returncode == 2
    _assert_cli_started(edited)
    assert "FAIL sigma1-f1: sigma1-f1.trace.jsonl: " in edited.stdout, edited.stdout
    missing = _cli("verify-goldens", "--dir", str(tmp_path / "nope"), cwd=tmp_path)
    assert missing.returncode == 1
    _assert_cli_started(missing)
    assert missing.stderr.startswith("error: golden directory "), missing.stderr
    assert "does not exist" in missing.stderr


def test_cli_operator_errors_exit_one(tmp_path):
    usage = _cli("run", cwd=tmp_path)
    assert usage.returncode == 1
    _assert_cli_started(usage)
    assert "bcsim run: error:" in usage.stderr, usage.stderr
    gone = _cli("run", "--scenario", "missing.json", cwd=tmp_path)
    assert gone.returncode == 1
    _assert_cli_started(gone)
    assert gone.stderr.startswith("error:"), gone.stderr
    assert "missing.json" in gone.stderr
    loose = json.loads(serialize_scenario(golden_set()[0].scenario))
    loose["system"]["binary_domain"] = "no"
    (tmp_path / "loose.json").write_text(json.dumps(loose))
    strict = _cli("run", "--scenario", "loose.json", cwd=tmp_path)
    assert strict.returncode == 1
    _assert_cli_started(strict)
    assert strict.stderr.startswith("error: binary_domain must be true or false"), strict.stderr
    loose["system"]["binary_domain"] = False
    loose["system"]["n"] = "3"
    (tmp_path / "loose.json").write_text(json.dumps(loose))
    strict = _cli("run", "--scenario", "loose.json", cwd=tmp_path)
    assert strict.returncode == 1
    _assert_cli_started(strict)
    assert strict.stderr.startswith("error: n must be an integer, got '3'"), strict.stderr
    past = json.loads(serialize_scenario(golden_set()[0].scenario))
    assert (past["system"]["model"], past["system"]["n"]) == ("benign", 3)
    past["system"]["f"] = 2
    (tmp_path / "past.json").write_text(json.dumps(past))
    refused = _cli("run", "--scenario", "past.json", cwd=tmp_path)
    assert refused.returncode == 1
    _assert_cli_started(refused)
    assert refused.stderr.startswith("error: benign optimizer needs n > 2f, got n=3 f=2"), refused.stderr
    past["system"].update(f=1, base="paxos")
    (tmp_path / "past.json").write_text(json.dumps(past))
    unknown = _cli("run", "--scenario", "past.json", cwd=tmp_path)
    assert unknown.returncode == 1
    _assert_cli_started(unknown)
    assert "error: base 'paxos' does not fit model benign" in unknown.stderr, unknown.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("explore", "--depth", "0"),
        ("explore", "--leaves", "-3"),
        ("campaign", "--runs", "-5", "--seed", "1"),
    ],
)
def test_cli_counts_below_one_exit_one(tmp_path, argv):
    (tmp_path / "golden.json").write_text(serialize_scenario(golden_set()[0].scenario))
    bad = _cli(*argv[:1], "--scenario", "golden.json", *argv[1:], cwd=tmp_path)
    assert bad.returncode == 1
    _assert_cli_started(bad)
    assert f"error: argument {argv[1]}: expected an integer >= 1" in bad.stderr, bad.stderr
    assert "no violations" not in bad.stdout


def _witness(schedule: dict) -> str:
    """A golden scenario file with the given schedule document."""
    return json.dumps({**scenario_to_obj(golden_set()[0].scenario), "schedule": schedule})


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "scripted", "steps": {"0": ["timer", 0]}},
        {"mode": "scripted", "steps": "timer 0"},
        {"mode": "scripted", "steps": 7},
    ],
)
def test_cli_rejects_a_witness_without_a_list_of_steps(tmp_path, doc):
    (tmp_path / "witness.json").write_text(_witness(doc))
    bad = _cli("run", "--scenario", "witness.json", cwd=tmp_path)
    assert bad.returncode == 1
    _assert_cli_started(bad)
    assert bad.stderr.startswith("error: malformed "), bad.stderr
    assert "invariants" not in bad.stdout


def test_cli_seed_reruns_a_witness_under_a_seeded_schedule(tmp_path):
    # --seed replaces any schedule the file holds, a witness's script included.
    (tmp_path / "witness.json").write_text(_witness({"mode": "scripted", "steps": []}))
    ran = _cli("run", "--scenario", "witness.json", "--seed", "5", "--trace", "t.jsonl",
               cwd=tmp_path)
    assert ran.returncode == 0, ran.stderr
    head = json.loads((tmp_path / "t.jsonl").read_text().split("\n", 1)[0])
    assert head["scenario"]["schedule"] == {"mode": "seeded", "seed": 5}


@pytest.mark.parametrize("name,f", [("figure1", "-1"), ("figure1", "0"), ("figure2", "0")])
def test_cli_scenario_refuses_f_below_one(tmp_path, name, f):
    bad = _cli("scenario", "--name", name, "--f", f, "--out", "figs", cwd=tmp_path)
    assert bad.returncode == 1
    _assert_cli_started(bad)
    assert f"error: argument --f: expected an integer >= 1, got '{f}'" in bad.stderr, bad.stderr
    assert not (tmp_path / "figs").exists()
    assert bad.stdout == ""


def test_cli_rejects_a_malformed_witness_script(tmp_path):
    (tmp_path / "witness.json").write_text(_witness(
        {"mode": "scripted", "steps": [["deliver", 0, 1, "proposal", -1]]}
    ))
    bad = _cli("run", "--scenario", "witness.json", cwd=tmp_path)
    assert bad.returncode == 1
    _assert_cli_started(bad)
    assert bad.stderr.startswith("error: malformed script step 0"), bad.stderr
