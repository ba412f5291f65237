"""Why the stricter adoption threshold earns its keep.

The relaxed classical variant adopts the preferred value on mere presence
and claims to tolerate f < n/3.  Three staged runs against it show where
that breaks:

  stage 1: unanimous preference, everything decides fast -- looks fine.
  stage 2: one dissenter, mixed paths, still agreeing -- still looks fine.
  stage 3: an equivocating node plants the preferred value into enough
           views that correct nodes adopt it, and the system decides a
           value no correct node ever proposed.

The recorded schedule of stage 3 is a replayable witness: the same
scenario under that schedule as a Scripted one, which is the scenario file
`bcsim run` writes.  The same adversary against the properly bounded
variant (f < n/4) is then explored exhaustively: no interleaving reproduces
the breach.
"""

import dataclasses

from biased_consensus import (
    Scripted,
    explore,
    lower_bound_sigma,
    run,
    run_named,
    sigma3_properly_bounded,
)


def main() -> None:
    for ns in lower_bound_sigma(1):
        trace, ok, detail = run_named(ns)
        print(f"{ns.name}: {detail}" if not ok else f"{ns.name}: as staged")
        for node, rec in sorted(trace.decisions.items()):
            print(f"  node {node}: {rec.value.decode()!r} via {rec.path.value}")
        for kind, msg in trace.violations:
            print(f"  VIOLATION {kind}: {msg}")
        if trace.violations:
            print(f"  witness schedule: {len(trace.script)} steps, replaying...")
            replay = run(
                dataclasses.replace(
                    ns.scenario, schedule=Scripted(tuple(trace.script))
                )
            )
            again = {k for k, _ in replay.violations}
            print(f"  replay reproduces: {sorted(again)}")
        print()

    report = explore(sigma3_properly_bounded(1))
    print(
        f"same adversary, proper bound: {report.leaves} interleavings "
        f"explored, {report.violation_count} violations"
    )


if __name__ == "__main__":
    main()
