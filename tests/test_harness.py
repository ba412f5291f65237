"""Scenario files, summaries, goldens, and the command-line front end.

CLI exit codes under test: 0 clean, 1 operator error (bad usage, missing
file, malformed document), 2 protocol trouble (violation found, witness
written, or a non-quiescent run).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biased_consensus import (
    Correct,
    FailureModel,
    FullValue,
    MissingGolden,
    OptimizerConfig,
    Scenario,
    ScenarioInvalid,
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
    assert len(written) == 2 * len(golden_set())
    assert all(ok for _name, ok, _detail in verify_goldens(str(tmp_path)))
    victim = tmp_path / "figure1-benign-f1.trace.jsonl"
    victim.write_text(victim.read_text() + " ")
    results = dict(
        (name, ok) for name, ok, _ in verify_goldens(str(tmp_path))
    )
    assert results["figure1-benign-f1"] is False
    victim.unlink()
    statuses = {name: detail for name, _ok, detail in verify_goldens(str(tmp_path))}
    assert statuses["figure1-benign-f1"] == "trace file missing"


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


def test_cli_violation_run_writes_a_replayable_witness(tmp_path):
    assert _cli("scenario", "--name", "sigma", "--f", "1", cwd=tmp_path).returncode == 0
    spath = tmp_path / "sigma3-f1.scenario.json"
    first = _cli("run", "--scenario", str(spath), cwd=tmp_path)
    assert first.returncode == 2
    assert "VIOLATION classical-validity" in first.stdout
    witness = tmp_path / "witness-sigma3-f1.json"
    assert witness.exists()
    replay = _cli(
        "run", "--scenario", str(spath), "--script", str(witness), cwd=tmp_path
    )
    assert replay.returncode == 2
    assert "VIOLATION classical-validity" in replay.stdout


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
    assert _cli("scenario", "--name", "figure1", "--f", "1", cwd=tmp_path).returncode == 0
    clean = _cli(
        "explore",
        "--scenario",
        str(tmp_path / "figure1-benign-f1.scenario.json"),
        cwd=tmp_path,
    )
    assert clean.returncode == 0
    assert "no violations" in clean.stdout


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
    out = _cli(
        "campaign",
        "--scenario",
        str(tmp_path / "figure1-benign-f1.scenario.json"),
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


def test_cli_verify_goldens(tmp_path):
    ok = _cli("verify-goldens", "--dir", str(REPO_GOLDENS), cwd=tmp_path)
    assert ok.returncode == 0, ok.stderr
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
