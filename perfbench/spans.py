"""Span tracing of the qubus_forge layers, from the benchmark process only.

:func:`installed` rebinds the traced functions of each layer module to timing
wrappers.  A function is rebound under its name in every loaded qubus_forge
module that holds it (``state.canonicalize``, ``heralding.canonicalize``,
``protocols.canonicalize`` and the package's own name are separate
bindings), and every binding is restored on exit.  Nothing in the package
itself changes.

Per-term helpers (``qubus_close``, ``coherent_overlap``) are not traced:
they run once per pair of terms, and a span around each would cost more
than the work it measures.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, request]``
and written out when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Traced functions per layer module of qubus_forge.
LAYER_FUNCTIONS = {
    "state": ("canonicalize", "state_norm_sq", "overlap_sq"),
    "elements": (
        "apply_xpm",
        "apply_qubus_phase",
        "apply_bs_5050",
        "apply_su2",
        "apply_pbs",
        "apply_fourier_lomi",
    ),
    "heralding": ("herald_vacuum", "measure_ancilla_and_feedforward"),
    "protocols": (
        "prepare_single_photon_qudit",
        "entangle_stage",
        "generate",
        "target_state",
    ),
    "analysis": ("run_sweep", "sweep_point"),
    "cli": ("main",),
}

#: Per-layer metrics the traced run reports, values per request:
#: (name, unit, better).
PER_LAYER = (
    ("state.canonicalize.calls", "count", "lower"),
    ("state.canonicalize.self_ms", "ms", "lower"),
    ("state.canonicalize.terms_in", "count", "lower"),
    ("state.canonicalize.kept_ratio", "ratio", "higher"),
    ("state.state_norm_sq.calls", "count", "lower"),
    ("state.state_norm_sq.self_ms", "ms", "lower"),
    ("state.overlap_sq.calls", "count", "lower"),
    ("state.overlap_sq.self_ms", "ms", "lower"),
    ("elements.apply_xpm.self_ms", "ms", "lower"),
    ("elements.apply_qubus_phase.self_ms", "ms", "lower"),
    ("elements.apply_bs_5050.self_ms", "ms", "lower"),
    ("elements.apply_fourier_lomi.self_ms", "ms", "lower"),
    ("elements.apply_su2.self_ms", "ms", "lower"),
    ("elements.apply_pbs.self_ms", "ms", "lower"),
    ("heralding.herald_vacuum.calls", "count", "lower"),
    ("heralding.herald_vacuum.self_ms", "ms", "lower"),
    ("heralding.herald_vacuum.clusters", "count", "lower"),
    ("heralding.herald_vacuum.kept_ratio", "ratio", "higher"),
    ("heralding.measure_ancilla_and_feedforward.self_ms", "ms", "lower"),
    ("protocols.prepare_single_photon_qudit.calls", "count", "lower"),
    ("protocols.prepare_single_photon_qudit.self_ms", "ms", "lower"),
    ("protocols.entangle_stage.self_ms", "ms", "lower"),
    ("protocols.generate.self_ms", "ms", "lower"),
    ("protocols.target_state.self_ms", "ms", "lower"),
    ("analysis.run_sweep.self_ms", "ms", "lower"),
    ("analysis.sweep_point.calls", "count", "lower"),
    ("analysis.sweep_point.self_ms", "ms", "lower"),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
)

#: cli metrics are the inclusive duration of these spans, not self time.
CLI_SPANS = {
    "cli.interp_start_ms": "cli.interp_start",
    "cli.import_ms": "cli.import",
    "cli.main_ms": "cli.main",
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_canonicalize(counters, args, kwargs, result):
    counters["state.canonicalize.terms_in"] += len(_first_arg(args, kwargs, "state").terms)
    counters["state.canonicalize.terms_out"] += len(result.terms)


def _count_herald(counters, args, kwargs, result):
    counters["heralding.herald_vacuum.terms_in"] += len(
        _first_arg(args, kwargs, "state").terms
    )
    counters["heralding.herald_vacuum.terms_out"] += len(result.heralded_state.terms)
    counters["heralding.herald_vacuum.clusters"] += len(result.branch_table)


_COUNTERS = {
    "state.canonicalize": _count_canonicalize,
    "heralding.herald_vacuum": _count_herald,
}


class Tracer:
    """Collects spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0, 0, self._open[-1] if self._open else None, self.request]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured outside a wrapper, as a root of the request."""
        self.spans.append([name, start_ns, end_ns, None, self.request])

    def merge(self, spans, counters) -> None:
        """Append spans and counters recorded by another process."""
        base = len(self.spans)
        for name, start, end, parent, _request in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, self.request]
            )
        for key, value in counters.items():
            self.counters[key] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qubus_forge" or name.startswith("qubus_forge."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced functions of every loaded layer module to wrappers."""
    modules = _package_modules()
    restore = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"qubus_forge.{layer}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        setattr(module, fname, wrapper)
                        restore.append((module, fname, original))
        yield tracer
    finally:
        for module, fname, original in reversed(restore):
            setattr(module, fname, original)


def self_times(spans, pauses=()) -> list[int]:
    """Each span's duration minus the part of its interval covered by its
    child spans or by ``pauses`` (sorted (start, end) intervals in which the
    benchmark, not the package, ran; see speed.py)."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    pause_starts = [p[0] for p in pauses]
    out = []
    for index, (_name, start, end, _parent, _request) in enumerate(spans):
        first = max(0, bisect.bisect(pause_starts, start) - 1)
        inside = itertools.takewhile(
            lambda p: p[0] < end, (pauses[i] for i in range(first, len(pauses)))
        )
        covered = 0
        cursor = start
        for lo, hi in sorted(itertools.chain(children.get(index, ()), inside)):
            lo = max(lo, cursor)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def per_layer(tracer: Tracer, scales, pauses=()) -> dict[str, float]:
    """Every PER_LAYER metric, per request, from a traced run.

    ``scales[r]`` takes the timings of request r to nominal machine speed
    and ``pauses`` are left out of self times (see speed.py); counts are not
    scaled.
    """
    requests = len(scales)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    inclusive_ms = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans, pauses)):
        name, start, end, _parent, request = span
        scale = scales[request] / 1e6
        calls[name] += 1
        self_ms[name] += own * scale
        inclusive_ms[name] += (end - start) * scale
    values = {}
    for metric, _unit, _better in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if metric in CLI_SPANS:
            values[metric] = inclusive_ms[CLI_SPANS[metric]] / requests
        elif kind == "calls":
            values[metric] = calls[stem] / requests
        elif kind == "self_ms":
            values[metric] = self_ms[stem] / requests
        elif kind == "kept_ratio":
            terms_in = tracer.counters[f"{stem}.terms_in"]
            values[metric] = tracer.counters[f"{stem}.terms_out"] / terms_in if terms_in else 0.0
        else:
            values[metric] = tracer.counters[metric] / requests
    return values
