"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the library from outside:
nothing under ``src/`` knows it exists.  Each call to a wrapped name records
one span (name, start, end, parent span, run id) in flat arrays, so that a
few million spans fit in tens of megabytes.  A layer's self time is its
spans' durations minus the durations of their direct child spans; because
calls nest strictly in one thread, the self times of all spans sum to the
total time covered by top-level spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

# (span name, defining module, attribute, optional result measure).  A
# dotted attribute is a method, patched on its class; a plain one is a
# function, patched in every namespace that holds it by name.  The measure
# adds a number derived from each call's result to the span name's counter.
LAYERS: list[tuple[str, str, str, Callable | None]] = [
    ("simnet.runner_init", "biased_consensus.simnet", "Runner.__init__", None),
    ("simnet.start_batch", "biased_consensus.simnet", "Runner.start_batch", None),
    ("simnet.run", "biased_consensus.simnet", "Runner.run", None),
    ("simnet.enabled_choices", "biased_consensus.simnet", "Runner.enabled_choices", len),
    ("simnet.apply_choice", "biased_consensus.simnet", "Runner.apply_choice", None),
    ("simnet.clone", "biased_consensus.simnet", "Runner.clone", None),
    ("simnet.trace", "biased_consensus.simnet", "Runner.trace", None),
    ("simnet.serialize", "biased_consensus.simnet", "Trace.serialize", len),
    ("optimizer.on_proposal", "biased_consensus.optimizer", "OptimizerNode.on_proposal", None),
    ("optimizer.on_base_decision", "biased_consensus.optimizer", "OptimizerNode.on_base_decision", None),
    ("optimizer.copy", "biased_consensus.optimizer", "OptimizerNode.copy", None),
    ("proof_aware.on_proposal", "biased_consensus.proof_aware", "ProofAwareNode.on_proposal", None),
    ("proof_aware.on_full", "biased_consensus.proof_aware", "ProofAwareNode.on_full", None),
    ("proof_aware.copy", "biased_consensus.proof_aware", "ProofAwareNode.copy", None),
    ("adoption.adoption_criteria", "biased_consensus.adoption", "adoption_criteria", None),
    ("adoption.adoption_criteria_full", "biased_consensus.adoption", "adoption_criteria_full", None),
    ("base.legal_decisions", "biased_consensus.base", "BaseInstance.legal_decisions", None),
    ("base.run_floodset", "biased_consensus.base", "run_floodset", None),
    ("base.run_phase_king", "biased_consensus.base", "run_phase_king", None),
    ("base.run_eig", "biased_consensus.base", "run_eig", None),
    ("explore", "biased_consensus.explore", "explore", None),
    ("harness.summarize", "biased_consensus.harness", "summarize", None),
    ("harness.serialize_scenario", "biased_consensus.harness", "serialize_scenario", None),
    ("harness.parse_scenario", "biased_consensus.harness", "parse_scenario", None),
    ("harness.verify_goldens", "biased_consensus.harness", "verify_goldens", None),
]

SPAN_NAMES = [name for name, _, _, _ in LAYERS]


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Return fn recording one span per call; measure(result) is added
        to counters[name] when given."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        self.counters.setdefault(name, 0)
        clock, open_ = self.clock, self._open
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, runs, counters = self.parent, self.run, self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1] if open_ else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if measure is not None:
                counters[name] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and call count per span name."""
        n = len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            self_s[nid] += ends[i] - starts[i] - child[i]
            calls[nid] += 1
        return {name: (self_s[i], calls[i]) for i, name in enumerate(self.names)}

    def write(self, path: str, meta: dict) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        fields = ["name_id", "start", "end", "parent", "run"]
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            **meta,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write: the header and one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for f, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[f] = col
    return header, columns


@contextmanager
def installed(tracer: Tracer, extra_namespaces: tuple = ()) -> Iterator[Tracer]:
    """Wrap every name in LAYERS where it is looked up, and restore on exit.

    Functions are replaced in every module of the package that holds them by
    name (``optimizer`` imports ``adoption_criteria``, ``simnet`` imports the
    concrete bases, the package re-exports ``explore``), and in the given
    extra namespaces, such as the benchmark's own workload module.
    """
    namespaces = [
        mod
        for key, mod in sorted(sys.modules.items())
        if key == "biased_consensus" or key.startswith("biased_consensus.")
    ] + list(extra_namespaces)
    undo: list[tuple[object, str, object]] = []
    try:
        for name, modname, attr, measure in LAYERS:
            module = importlib.import_module(modname)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                undo.append((owner, leaf, original))
                setattr(owner, leaf, tracer.wrap(name, original, measure))
                continue
            original = getattr(module, leaf)
            wrapped = tracer.wrap(name, original, measure)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        undo.append((ns, key, original))
                        setattr(ns, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
