"""Time ``generate`` and ``run_sweep`` of two source trees against each
other in one process.

    python3 tools/ab_generate.py PARENT_SRC CHANGE_SRC [--rounds N] [--only CASE]
                                 [--layers]

Each argument is a ``src`` directory that holds a ``qubus_forge`` package,
for instance ``src`` of this checkout and ``src`` of an exported parent
commit.  Each tree is copied into a temporary directory under its own
package name (``qubus_forge_parent``, ``qubus_forge_change``); the package
imports itself only relatively, so both load side by side.

The ``generate`` cases are the ``paper_point`` classes n = 2, 3, 4, 5 with
two parties (n = 4 is the class that holds that workload's median) and
n = 3 with three, then the five ``wide_qudit`` classes: n = 24, 32, 40, 48
with two parties and n = 24 with three (shifts (0, 1), (0, 1, 2) or
(0, 1, 5), theta 0.01, alpha 500).  A ``wide_qudit`` block runs each of
the five once, so its p50 is the third of them by time (n = 32) and its
p75 the fourth (n = 40), and its ``requests_per_s`` follows their summed
time: the last row, ``wide block``, gives the median of the per-round
ratios of that sum, and each side's median sum, in each pass.  The spec is built once, so every call after the first finds
its n's prepared state and layouts memoized, as a workload that repeats n
does.  The request-shaped ``req`` cases pay the spec's cost too, as a
``paper_point`` request does: one per (n, parties) class of that workload
(n = 2..5, two or three parties), each call builds and generates the same
eight seeded specs through ``ProtocolSpec.balanced``, with the first shift
0 and the rest drawn, balanced or drawn phase indices, alpha in
[100, 500], theta in [0.005, 0.05] and eta 1 or in [0.5, 1], drawn as that
workload draws them.  The ``run_sweep`` cases are the three grids of one
``sweep_grid`` benchmark block: 10 x 5 x 4 grids at n = 3, 3 and 5, alpha
uniform in [50, 500], theta log-uniform in [0.001, 0.1], eta uniform in
[0.5, 1], drawn from a fixed seed; each call builds its ``SweepGrid``.

For each case the tool first asserts that both trees return the same
``repr`` of the result once the package name is masked.  Then it runs
``--rounds`` rounds, alternating which side runs first, and times each
side with ``time.perf_counter`` over a batch of calls (about 20 ms of the
parent's time) three times: with the garbage collector off, which shows the
work each call does; with it on at the interpreter's thresholds, which adds
the cyclic collections that the objects a call allocates start; and cold,
with the collector on and ``generate``'s erasure memo
(``protocols._erased``) cleared before every call, in a tree that has one.
A repeated spec reuses its erasure in the first two passes, so the cold
pass is the one to compare with ratios taken before the memo existed.  Each
batch starts from a full collection and one untimed call: a full
collection empties CPython's free lists of small tuples, and a call that
finds them empty allocates its tuples as counted objects.  It prints, per
case and per pass, the median of the per-round ratios change / parent and
each side's median time per call, then each side's collections started
per call in the pass with the collector on (``gc.callbacks`` counts them;
a collection starts when generation 0 overflows its threshold, whichever
generation it then collects), and each side's erasure-memo hits per call
in the two warm passes ("-" for a tree without the memo).

``--only CASE`` runs only the case of that label (as printed, e.g.
``--only "n=48, M=2"``); give it more than once for more cases.

``--layers`` prints, after the end-to-end cases, each tree's cold split of
``generate`` into its layers for every ``generate`` class run (by default
the paper's range and the five wide classes): attaching each party,
coupling it, heralding with the spectator beam dropped (each summed over
the stages), the Fourier step, the feedforward outcomes, the outcome checks
and the target overlap (building the target with ``generate``'s own
``protocols._spec_target`` included, so both trees need it).  It walks the
same path as ``generate`` through the tree's own functions, with no memo of
a whole erasure, and checks that it reaches ``generate``'s final state.
Each layer is the fastest of 21 runs (``LAYER_RUNS``) on the same input with
the collector off.  The outcome checks are the feedforward with its checks
(``measure_ancilla_and_feedforward``) less the outcomes alone
(``feedforward_outcomes``), the two timed in turns, each the fastest of
its runs.  The rows give
milliseconds per call and, per class, the ratio change / parent of each
layer.

Pin the process to one CPU for steadier numbers, e.g. ``taskset -c 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

# (n, shifts): the five classes of a wide_qudit block, two parties over a
# range of n and three at n = 24
WIDE_CASES = ((24, (0, 1)), (32, (0, 1)), (40, (0, 1)), (48, (0, 1)), (24, (0, 1, 5)))

# the paper's range (n <= 5, two or three parties), then the wide classes
GENERATE_CASES = (
    (2, (0, 1)), (3, (0, 1)), (4, (0, 1)), (5, (0, 1)), (3, (0, 1, 2)),
) + WIDE_CASES

# the (n, parties) classes of a paper_point block, and the seeded specs
# each request-shaped call builds
REQUEST_CLASSES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))
REQUESTS_PER_CALL = 8
REQUEST_SEED = 23

# the grid dimensions of one sweep_grid block
SWEEP_NS = (3, 3, 5)
SWEEP_SEED = 16


def load(src: Path, side: str, into: Path):
    """Import ``src/qubus_forge`` as the package ``qubus_forge_<side>``."""
    package = src / "qubus_forge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no qubus_forge package")
    name = f"qubus_forge_{side}"
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def generate_case(n: int, shifts: tuple[int, ...]):
    """(label, call maker): the maker builds the spec and returns the call."""
    def make(module):
        spec = module.ProtocolSpec.balanced(n, len(shifts), shifts, 0.01, 500.0)
        return lambda: module.generate(spec)

    return f"n={n}, M={len(shifts)}", make


def request_case(n: int, parties: int, rng: random.Random):
    """(label, call maker): each call builds and generates the same seeded
    specs of class (n, parties), as ``paper_point`` requests do."""
    items = []
    for _ in range(REQUESTS_PER_CALL):
        shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
        phases = None if rng.random() < 0.5 else tuple(rng.randrange(n) for _ in range(parties))
        alpha = rng.uniform(100.0, 500.0)
        theta = rng.uniform(0.005, 0.05)
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        items.append((shifts, phases, alpha, theta, eta))

    def make(module):
        def call():
            return [
                module.generate(module.ProtocolSpec.balanced(
                    n, parties, shifts, theta, alpha, module.DetectorModel(eta), phases
                ))
                for shifts, phases, alpha, theta, eta in items
            ]

        return call

    return f"req n={n}, M={parties}", make


def sweep_case(k: int, n: int, rng: random.Random):
    """(label, call maker) for one seeded 10 x 5 x 4 grid at dimension n."""
    alphas = tuple(sorted(rng.uniform(50.0, 500.0) for _ in range(10)))
    thetas = tuple(sorted(10.0 ** rng.uniform(-3.0, -1.0) for _ in range(5)))
    etas = tuple(sorted(rng.uniform(0.5, 1.0) for _ in range(4)))

    def make(module):
        return lambda: module.run_sweep(module.SweepGrid(alphas, thetas, etas, n))

    return f"sweep {k}, n={n}", make


def cases():
    requests = random.Random(REQUEST_SEED)
    rng = random.Random(SWEEP_SEED)
    return (
        [generate_case(n, shifts) for n, shifts in GENERATE_CASES]
        + [request_case(n, parties, requests) for n, parties in REQUEST_CLASSES]
        + [sweep_case(k, n, rng) for k, n in enumerate(SWEEP_NS)]
    )


def masked_repr(module, call) -> str:
    return repr(call()).replace(module.__name__, "qubus_forge")


def erasure_memo(module):
    """The tree's erasure memo, or None in a tree without one."""
    return getattr(module.protocols, "_erased", None)


def _no_reset():
    pass


def time_calls(call, calls: int, collector: bool = False, reset=_no_reset) -> tuple[float, int]:
    """(seconds per ``call()``, collections started) over ``calls`` calls,
    with the garbage collector on or off, and ``reset()`` before each."""
    started = 0

    def count(phase, info):
        nonlocal started
        if phase == "start":
            started += 1

    gc.collect()
    reset()
    call()  # fills the free lists again
    if not collector:
        gc.disable()
    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        for _ in range(calls):
            reset()
            call()
        return (time.perf_counter() - start) / calls, started
    finally:
        gc.callbacks.remove(count)
        gc.enable()


def timing_columns(times, passes) -> str:
    """Per pass: the median of the per-round ratios change / parent, then
    each side's median time per call in ms."""
    row = ""
    for kind in passes:
        parent, change = times["parent", kind], times["change", kind]
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        medians = [1e3 * statistics.median(times[side, kind]) for side in SIDES]
        row += f" {ratio:>7.3f} {medians[0]:>10.3f} {medians[1]:>10.3f}"
    return row


LAYERS = ("attach", "couple", "herald", "fourier", "outcomes", "checks", "overlap")

# runs per layer in the split, of which each layer takes the fastest
LAYER_RUNS = 21


def layer_split(module, n: int, shifts: tuple[int, ...]) -> dict[str, float]:
    """Seconds per call of each layer of a cold ``generate`` of class
    (n, shifts), each the fastest of :data:`LAYER_RUNS` runs, the collector
    off."""
    protocols, heralding = module.protocols, module.heralding
    spec = module.ProtocolSpec.balanced(n, len(shifts), shifts, 0.01, 500.0)
    split = dict.fromkeys(LAYERS, 0.0)

    def fastest(layer, fn, *args):
        best = math.inf
        for _ in range(LAYER_RUNS):
            start = time.perf_counter()
            out = fn(*args)
            best = min(best, time.perf_counter() - start)
        split[layer] += best
        return out

    def herald(state, beam):
        outcome = heralding.herald_vacuum(state, beam, spec.detector)
        return module.state.drop_uniform_beam(outcome.heralded_state, beam)

    def overlap(state):
        return protocols.overlap_sq(state, protocols._spec_target(spec))

    state = module.prepare_single_photon_qudit(n)
    gc.collect()
    gc.disable()
    try:
        for party in range(spec.parties):
            attached = fastest(
                "attach", protocols._attach_party, state, spec.coeffs[party], spec.alpha
            )
            coupled, beam = fastest(
                "couple", protocols._couple, attached, shifts[party], spec.theta
            )
            state = fastest("herald", herald, coupled, beam)
        fourier = fastest("fourier", module.apply_fourier_lomi, state)
        # the outcomes alone and with their checks, in turns, so that a slow
        # stretch of the machine hits both
        alone = checked = math.inf
        for _ in range(LAYER_RUNS):
            start = time.perf_counter()
            heralding.feedforward_outcomes(fourier, 0)
            middle = time.perf_counter()
            final = heralding.measure_ancilla_and_feedforward(fourier, 0)
            alone = min(alone, middle - start)
            checked = min(checked, time.perf_counter() - middle)
        split["outcomes"], split["checks"] = alone, checked - alone
        fastest("overlap", overlap, final)
    finally:
        gc.enable()
    if repr(final) != repr(module.generate(spec).final_state):
        raise SystemExit(f"error: the layer split of n={n}, M={len(shifts)} misses generate's state")
    return split


def print_layers(modules, classes) -> None:
    """The per-layer split of each class in ``classes``, per tree."""
    print(f"\ncold layer split, ms per call (fastest of {LAYER_RUNS} runs, collector off)")
    print(f"{'case':<16} {'side':<7}" + "".join(f" {layer:>9}" for layer in LAYERS)
          + f" {'total':>9}")
    for n, shifts in classes:
        label = generate_case(n, shifts)[0]
        splits = {side: layer_split(modules[side], n, shifts) for side in SIDES}
        for side in SIDES:
            values = [splits[side][layer] for layer in LAYERS]
            print(f"{label:<16} {side:<7}" + "".join(f" {1e3 * v:>9.3f}" for v in values)
                  + f" {1e3 * sum(values):>9.3f}")
        ratios = [splits["change"][layer] / splits["parent"][layer] for layer in LAYERS]
        total = sum(splits["change"].values()) / sum(splits["parent"].values())
        print(f"{label:<16} {'ratio':<7}" + "".join(f" {r:>9.3f}" for r in ratios)
              + f" {total:>9.3f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--only", action="append", metavar="CASE",
                        help="run only the case of this label; repeatable")
    parser.add_argument("--layers", action="store_true",
                        help="print each tree's cold per-layer split of the generate classes run")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    selected = [(label, make) for label, make in cases() if not args.only or label in args.only]
    unknown = set(args.only or ()) - {label for label, _ in selected}
    if unknown:
        parser.error(f"no case is labelled {', '.join(sorted(unknown))}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            compare(args, selected, tmp)
        finally:
            sys.path.remove(tmp)
            for side in SIDES:  # the copies go with the directory
                for name in [m for m in sys.modules if m.split(".")[0] == f"qubus_forge_{side}"]:
                    del sys.modules[name]


def compare(args, selected, tmp: str) -> None:
    """Time the ``selected`` cases of the trees loaded into ``tmp``, then
    print the layer split when ``args.layers`` asks for it."""
    sources = (args.parent_src, args.change_src)
    modules = {side: load(src, side, Path(tmp)) for side, src in zip(SIDES, sources)}
    memos = {side: erasure_memo(modules[side]) for side in SIDES}
    resets = {side: memos[side].clear if memos[side] else _no_reset for side in SIDES}
    wide_labels = {generate_case(n, shifts)[0] for n, shifts in WIDE_CASES}
    wide = {}  # (side, pass) -> per wide class, its time per call in each round
    # (collector on, erasure memo cleared before each call)
    passes = ((False, False), (True, False), (True, True))
    columns = f"{'ratio':>7} {'parent ms':>10} {'change ms':>10}"
    print(f"{'':<16} {'gc off':^29} {'gc on':^29} {'cold, gc on':^29}"
          f"  collections per call  memo hits per call")
    print(f"{'case':<16} {columns} {columns} {columns} {'parent':>8} {'change':>8}"
          f"  {'parent':>8} {'change':>8}  ({args.rounds} rounds)")
    for label, make in selected:
        calls = {side: make(modules[side]) for side in SIDES}
        outputs = {masked_repr(modules[side], calls[side]) for side in SIDES}
        if len(outputs) != 1:
            raise SystemExit(f"error: outputs differ in case {label}")
        batch = max(1, round(0.02 / time_calls(calls["parent"], 1)[0]))
        times = {(side, p): [] for side in SIDES for p in passes}
        started = dict.fromkeys(SIDES, 0)
        hits = dict.fromkeys(SIDES, 0)
        for r in range(args.rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                for on, cold in passes:
                    memo = memos[side]
                    before = memo.hits if memo and not cold else 0
                    reset = resets[side] if cold else _no_reset
                    seconds, count = time_calls(calls[side], batch, on, reset)
                    times[side, (on, cold)].append(seconds)
                    if on and not cold:
                        started[side] += count
                    if memo and not cold:
                        hits[side] += memo.hits - before
        if label in wide_labels:
            for key, seconds in times.items():
                wide.setdefault(key, []).append(seconds)
        row = f"{label:<16}" + timing_columns(times, passes)
        per_call = [started[side] / (args.rounds * batch) for side in SIDES]
        row += f" {per_call[0]:>8.2f} {per_call[1]:>8.2f} "
        for side in SIDES:
            # two warm passes, each of a batch of calls and one untimed call
            warm_calls = 2 * args.rounds * (batch + 1)
            row += f" {hits[side] / warm_calls:>8.2f}" if memos[side] else f" {'-':>8}"
        print(row)
    # each round's times summed over the wide classes, per side and pass
    labels = {label for label, _ in selected}
    if wide_labels <= labels:
        block = {key: [sum(r) for r in zip(*per_case)] for key, per_case in wide.items()}
        print(f"{'wide block':<16}" + timing_columns(block, passes))
    if args.layers:
        classes = [c for c in GENERATE_CASES if generate_case(*c)[0] in labels]
        print_layers(modules, classes)


if __name__ == "__main__":
    main()
