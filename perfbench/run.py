"""The repository's benchmark: one workload per invocation, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py for what
each one drives and why): seeded-large, campaign-small, explore-exhaustive,
record-replay.

--trace 0 repeats the workload's fixed work until S seconds have passed and
reports the end-to-end metrics, with no wrapper installed:

  setup_s       median of 9 set-ups spread over the run, each a fresh
                process that imports the package, builds the workload's
                scenarios and exits
  wall_s        median wall time of one repetition of the fixed work
  events_per_s  simulator events per repetition / wall_s; on
                explore-exhaustive the events are the searches' pinned
                reference count, so pruning that skips events does not read
                as a slowdown
  runs_per_s    operations per repetition / wall_s: seeded runs, campaign
                runs, searches, or record-replay cycles
  run_ms_p50    median across operations of one operation's wall time,
                itself the median over the repetitions
  run_ms_p99    99th percentile of the same (nearest rank); the sample
                count and the samples beyond it are printed
  peak_rss_mb   peak resident memory of the process

--trace 1 runs the fixed work once untraced in this process, then once in a
child process with every layer in tracing.LAYERS wrapped, and reports the
per-layer metrics, the tracing overhead and the spans file it wrote.

Every operation's output is checked (see workloads.check_run and the run
functions).  error_rate = failed / attempted is printed; the result's last
line is one JSON object with correct, attempted, failed and metrics.  The
benchmark refuses to run when SIM_EVENT_BUDGET is set, because the
simulator silently changes behaviour from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

WORKLOAD_NAMES = ("seeded-large", "campaign-small", "explore-exhaustive", "record-replay")


def percentile_index(n: int, q: float) -> int:
    """Nearest-rank index of the q-th percentile among n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(0, math.ceil(q / 100 * n) - 1)


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples lie beyond the q-th percentile."""
    return n - 1 - percentile_index(n, q)


def env_line() -> str:
    return f"python {platform.python_version()}  nproc {os.cpu_count()}"


def refusal() -> str | None:
    """Why the benchmark cannot run in this environment, or None."""
    if "SIM_EVENT_BUDGET" in os.environ:
        return (
            "SIM_EVENT_BUDGET is set; the simulator changes behaviour from it, "
            "so results would not be comparable. Unset it and rerun."
        )
    if not (SRC / "biased_consensus").is_dir():
        return f"no package source at {SRC / 'biased_consensus'}; run from a full checkout"
    return None


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _child(args: argparse.Namespace, flag: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        flag,
    ]
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )


def _setup_seconds(args: argparse.Namespace) -> float:
    """Wall time of one set-up: a fresh process that imports the package,
    builds the workload's scenarios and exits."""
    t0 = time.perf_counter()
    _child(args, "--setup-only")
    return time.perf_counter() - t0


class _Checker:
    """Tallies each repetition as it ends, against the pinned fingerprints,
    or against the first repetition where none are pinned, so that no
    repetition's results stay in memory."""

    def __init__(self, wl, seed: int) -> None:
        self.name = wl.name
        self.expected = workloads.pinned_fingerprints(
            workloads.load_reference(), wl.name, seed
        )
        self.tally = workloads.Tally()

    def check(self, rep) -> None:
        if self.expected is None:
            self.expected = rep.fingerprints
        workloads.tally_rep(self.tally, self.name, rep, self.expected)


def _emit(tally, metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}  {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':32s} {tally.error_rate:.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced(args: argparse.Namespace) -> None:
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    checker = _Checker(wl, args.seed)
    setups, walls, op_s = [], [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < args.seconds:
        # Set-ups are spread over the run, between repetitions, so that
        # their median does not hang on one moment's machine speed.
        elapsed = time.perf_counter() - t_start
        if len(setups) < SETUP_PROBES and len(setups) <= SETUP_PROBES * elapsed / args.seconds:
            setups.append(_setup_seconds(args))
        t0 = time.perf_counter()
        rep = wl.run(inputs)
        walls.append(time.perf_counter() - t0)
        checker.check(rep)
        op_s.append(array("d", rep.op_s))
        events = rep.events
        del rep
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_seconds(args))
    tally = checker.tally

    wall = statistics.median(walls)
    if wl.name == "explore-exhaustive":
        events = workloads.load_reference()["explore_events"]
    # Each operation's time is its median over the repetitions; the
    # percentiles are then taken across operations.
    op_ms = sorted(statistics.median(ts) * 1e3 for ts in zip(*op_s))
    ops = len(op_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "events_per_s": (events / wall, "1/s"),
        "runs_per_s": (ops / wall, "1/s"),
        "run_ms_p50": (op_ms[percentile_index(len(op_ms), 50)], "ms"),
        "run_ms_p99": (op_ms[percentile_index(len(op_ms), 99)], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"(median of {len(setups)} set-ups)",
        "wall_s": f"(median of {len(walls)} repetitions)",
        "events_per_s": f"({events} events per repetition)",
        "runs_per_s": f"({ops} operations per repetition)",
        "run_ms_p50": f"({ops} operations, each the median of {len(walls)} repetitions)",
        "run_ms_p99": f"({ops} operations, {samples_beyond(ops, 99)} beyond it)",
    }
    print(f"workload {wl.name}  seed {args.seed}  untraced  {env_line()}")
    _emit(tally, metrics, notes)


def traced_child(args: argparse.Namespace) -> None:
    """Run the fixed work once with every layer wrapped; print one JSON line."""
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, extra_namespaces=(workloads,)):
        t0 = time.perf_counter()
        rep = wl.run(inputs, tracer)
        wall = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}.bin"
    tracer.write(str(spans_path), {
        "workload": wl.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "wall_s": wall,
    })
    print(json.dumps({
        "wall_s": wall,
        "layers": tracer.layer_totals(),
        "measured": tracer.counters,
        "spans": len(tracer),
        "spans_path": str(spans_path.relative_to(ROOT)),
        "rep": {
            "events": rep.events,
            "errors": rep.errors,
            "fingerprints": rep.fingerprints,
            "counts": rep.counts,
            "op_s": rep.op_s,
        },
    }))


def traced(args: argparse.Namespace) -> None:
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    t0 = time.perf_counter()
    plain = wl.run(inputs)
    untraced_wall = time.perf_counter() - t0
    child = json.loads(_child(args, "--traced-child").stdout.strip().splitlines()[-1])
    traced_rep = workloads.Rep(**child["rep"])
    checker = _Checker(wl, args.seed)
    checker.check(plain)
    checker.check(traced_rep)
    tally = checker.tally
    tally.record("traced run", None if traced_rep.counts == plain.counts
                 else "counts differ from the untraced run")

    layers = child["layers"]
    counts = plain.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SPAN_NAMES:
        self_s, calls = layers.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    enabled_calls = metrics["simnet.enabled_choices.calls"][0]
    measured = child["measured"]
    leaves = counts["explore.leaves"]
    decisions = counts["traffic.decisions"]
    total_msgs = sum(counts[f"traffic.{k}.msgs"] for k in ("proposal", "full", "base"))
    metrics.update({
        "simnet.choices_per_step": (
            measured["simnet.enabled_choices"] / enabled_calls if enabled_calls else 0.0,
            "count",
        ),
        "simnet.trace_bytes": (measured["simnet.serialize"], "bytes"),
        "explore.events": (counts["explore.events"], "count"),
        "explore.leaves": (leaves, "count"),
        "explore.distinct_outcomes": (counts["explore.distinct_outcomes"], "count"),
        "explore.outcomes_per_leaf": (
            counts["explore.distinct_outcomes"] / leaves if leaves else 0.0, "ratio"
        ),
        "explore.clones_per_leaf": (
            metrics["simnet.clone.calls"][0] / leaves if leaves else 0.0, "ratio"
        ),
        "traffic.proposal.msgs": (counts["traffic.proposal.msgs"], "count"),
        "traffic.full.msgs": (counts["traffic.full.msgs"], "count"),
        "traffic.base.msgs": (counts["traffic.base.msgs"], "count"),
        "traffic.full.proof_bytes": (counts["traffic.full.proof_bytes"], "bytes"),
        "traffic.msgs_per_decision": (total_msgs / decisions if decisions else 0.0, "ratio"),
    })
    self_total = sum(self_s for self_s, _ in layers.values())
    metrics.update({
        "trace.wall_s": (child["wall_s"], "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (child["wall_s"] - untraced_wall, "s"),
        "trace.untimed_s": (child["wall_s"] - self_total, "s"),
    })
    notes = {
        "trace.untimed_s": "(traced wall not inside any span: the benchmark's own loop and checks)",
        "trace.wall_s": f"(= {self_total:.6g} s summed self times + untimed; "
        f"{child['spans']} spans in {child['spans_path']})",
    }
    print(f"workload {wl.name}  seed {args.seed}  traced  {env_line()}")
    _emit(tally, metrics, notes)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    reason = refusal()
    if reason is not None:
        print(f"perfbench: refusing to run: {reason}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    global workloads, tracing
    import tracing
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload].build(args.seed)
    elif args.traced_child:
        traced_child(args)
    elif args.trace:
        traced(args)
    else:
        untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
