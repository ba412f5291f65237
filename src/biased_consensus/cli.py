"""Command-line front end.

Exit codes: 0 clean run, 1 usage/config/parse problems, 2 protocol-invariant
violations (so CI can tell "bug found" apart from "tool misuse").  Outputs
are deterministic for identical invocations: no timestamps, no machine state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .core import (
    ConfigError,
    NonQuiescence,
    ProtocolError,
)
from .explore import explore
from .harness import (
    load_scenario,
    save_scenario,
    serialize_summary,
    summarize,
    verify_goldens,
    write_goldens,
)
from .scenarios import (
    figure1_benign,
    figure2_classical,
    figure3_external,
    lower_bound_sigma,
    random_campaign,
)
from .simnet import Byzantine, Correct, CrashAt, Scripted, Seeded, run


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here that code means 'bug found',
    so usage problems are remapped to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least_one(text: str) -> int:
    """An integer of at least 1, the floor scenario files set for counts."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="bcsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one scenario file")
    runp.add_argument("--scenario", required=True, help="scenario JSON path")
    runp.add_argument("--seed", type=int, help="override the schedule with this seed")
    runp.add_argument("--trace", help="write the event trace (JSONL) here")
    runp.add_argument("--summary", help="write the metrics summary (JSON) here")
    runp.add_argument(
        "--witness-out",
        default=None,
        help="where to write the violating run as a scenario file (default witness-<name>.json)",
    )

    exp = sub.add_parser("explore", help="search all interleavings of a scenario")
    exp.add_argument("--scenario", required=True)
    exp.add_argument(
        "--depth", type=_at_least_one, default=None, help="total explored-event budget"
    )
    exp.add_argument(
        "--leaves", type=_at_least_one, default=None, help="maximum number of leaves"
    )
    exp.add_argument("--witness-out", default=None)

    camp = sub.add_parser("campaign", help="seeded batch of randomized runs")
    camp.add_argument("--scenario", required=True, help="template scenario file")
    camp.add_argument("--runs", type=_at_least_one, required=True)
    camp.add_argument("--seed", type=int, required=True)
    camp.add_argument("--summary", help="write the campaign report (JSON) here")

    scen = sub.add_parser("scenario", help="write canonical scenario files")
    scen.add_argument(
        "--name",
        required=True,
        choices=["figure1", "figure2", "figure3", "sigma"],
    )
    scen.add_argument("--f", type=_at_least_one, required=True, dest="faults")
    scen.add_argument("--out", default=".", help="output directory")

    gold = sub.add_parser("verify-goldens", help="replay pinned traces and diff")
    gold.add_argument("--dir", default="goldens")
    gold.add_argument(
        "--write", action="store_true", help="regenerate instead of verifying"
    )
    return p


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc.schedule = Seeded(args.seed)
    trace = run(sc)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.serialize())
    summary = summarize(sc, trace)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(serialize_summary(summary))
    for node, d in summary["decisions"].items():
        val = d["value"].get("text", d["value"].get("hex"))
        print(f"node {node}: decided {val!r} via {d['path']} (round {d['rounds']})")
    if trace.violations:
        wpath = args.witness_out or f"witness-{sc.name or 'run'}.json"
        save_scenario(replace(sc, schedule=Scripted(tuple(trace.script))), wpath)
        for kind, detail in trace.violations:
            print(f"VIOLATION {kind}: {detail}")
        print(f"witness scenario: {wpath}")
        return 2
    print("ok: all invariants hold")
    return 0


def _cmd_explore(args) -> int:
    sc = load_scenario(args.scenario)
    report = explore(sc, max_leaves=args.leaves, max_events=args.depth)
    print(
        f"leaves={report.leaves} events={report.events} "
        f"violating={report.violating_leaves} "
        f"budget_exceeded={report.budget_exceeded} "
        f"states={report.states} cache_hits={report.cache_hits}"
    )
    for kind, count in sorted(report.violation_kinds.items()):
        print(f"  {kind}: {count}")
    if report.witness is not None:
        wpath = args.witness_out or f"witness-{sc.name or 'explore'}.json"
        save_scenario(replace(sc, schedule=Scripted(tuple(report.witness))), wpath)
        print(f"witness scenario: {wpath}")
        return 2
    print("ok: no violations in explored space")
    return 0


def _cmd_campaign(args) -> int:
    sc = load_scenario(args.scenario)
    pool = [fl for fl in sc.faults if not isinstance(fl, Correct)]
    if not pool and sc.cfg.f > 0:
        pool = [CrashAt(0)]
    report = random_campaign(sc, pool, args.runs, args.seed)
    doc = {
        "base_message_runs": report.base_message_runs,
        "decided_values": {
            k.hex(): v for k, v in sorted(report.decided_values.items())
        },
        "fast_rate": report.fast_rate,
        "fast_runs": report.fast_runs,
        "messages": report.messages,
        "runs": report.runs,
        "violation_kinds": dict(sorted(report.violation_kinds.items())),
        "violation_runs": report.violation_runs,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 2 if report.violation_runs else 0


def _cmd_scenario(args) -> int:
    f = args.faults
    if args.name == "figure1":
        named = [figure1_benign(f)]
    elif args.name == "figure2":
        named = [figure2_classical(f)]
    elif args.name == "figure3":
        named = [figure3_external(f)]
    else:
        named = lower_bound_sigma(f)
    os.makedirs(args.out, exist_ok=True)
    for ns in named:
        path = os.path.join(args.out, f"{ns.name}.scenario.json")
        save_scenario(ns.scenario, path)
        print(path)
    return 0


def _cmd_verify_goldens(args) -> int:
    if args.write:
        for path in write_goldens(args.dir):
            print(f"wrote {path}")
        return 0
    results = verify_goldens(args.dir)
    bad = 0
    for name, ok, detail in results:
        print(f"{'ok ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            bad += 1
    return 2 if bad else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        return _cmd_verify_goldens(args)
    except NonQuiescence as e:
        print(f"VIOLATION non-quiescence: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ProtocolError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
