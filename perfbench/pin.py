"""Rewrite reference.json: the correctness references the benchmark checks.

    python3 perfbench/pin.py

Pins, for the reference seed, a digest of every seeded-large and
campaign-small run's applied schedule and decisions, and, for every seed,
the outcome set of each explore-exhaustive search and the searches' total
event count.  Run it only on a commit whose behaviour is the accepted
reference; a commit that changes what these runs do must say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SEED = 1


def main() -> None:
    fingerprints = {}
    explore_events = 0
    for name in ("seeded-large", "campaign-small", "explore-exhaustive"):
        wl = workloads.WORKLOADS[name]
        rep = wl.run(wl.build(SEED))
        errors = [e for e in rep.errors if e is not None]
        if errors:
            raise SystemExit(f"{name}: refusing to pin failing results: {errors[:3]}")
        fingerprints[name] = rep.fingerprints
        if name == "explore-exhaustive":
            explore_events = rep.events
    doc = {"seed": SEED, "explore_events": explore_events, "fingerprints": fingerprints}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
