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
workload draws them.  The last request-shaped case, ``req wide``, does the
same for the ``wide_qudit`` mix: each call builds and generates eight
seeded specs whose (n, parties) classes come from that workload's five in
shuffled blocks, with the spec fields drawn as above.  The ``run_sweep``
cases are the three grids of one
``sweep_grid`` benchmark block: 10 x 5 x 4 grids at n = 3, 3 and 5, alpha
uniform in [50, 500], theta log-uniform in [0.001, 0.1], eta uniform in
[0.5, 1], drawn from a fixed seed; each call builds its ``SweepGrid``.

For each case the tool first asserts that both trees return the same
``repr`` of the result once the package name is masked.  Then it runs
``--rounds`` rounds, alternating which side runs first, and times each
side with ``time.perf_counter`` over a batch of calls (about 20 ms of the
parent's time) twice, both times with the garbage collector on at the
interpreter's thresholds, so a time includes the cyclic collections that
the objects a call allocates start: warm, and cold, with ``generate``'s
erasure memo (``protocols._erased``) cleared before every call.  A
repeated spec reuses its erasure in the warm pass, so the cold pass is the
one to compare with ratios taken before the memo existed.  Each batch
starts from a full collection and one untimed call: a full collection
empties CPython's free lists of small tuples, and a call that finds them
empty allocates its tuples as counted objects.  It prints, per case and per
pass, the median of the per-round ratios change / parent and each side's
median time per call, then each side's collections started per call in the
warm pass (``gc.callbacks`` counts them; a collection starts when
generation 0 overflows its threshold, whichever generation it then
collects), and each side's erasure-memo hits per call in the warm pass.

``--only CASE`` runs only the case of that label (as printed, e.g.
``--only "n=48, M=2"``); give it more than once for more cases.

``--layers`` splits each ``generate`` class run (by default the paper's
range and the five wide classes) into the layers of :data:`LAYER_OF`:
attaching each party, coupling it, heralding with the spectator beam
dropped, the Fourier step, the feedforward outcomes, the outcome checks and
the target overlap.  In each round each side times one more cold batch
with every function of that table rebound, in its own tree, to a wrapper
that adds the call's self time (less that of the wrapped calls inside it,
so the checks are the feedforward less its outcomes) to its layer; the
bindings are restored after the batch.  ``generate`` looks these functions
up when it runs, so the split times ``generate`` itself; a tree that lacks
one stops the tool.  The rows give each side's median time per call of
each layer and of their total, and the median of the per-round ratios
change / parent.  A wrapper costs about 0.4 µs a call (2-3% of a cold
n = 2 call), the same in both trees.

Pin the process to one CPU for steadier numbers, e.g. ``taskset -c 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
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

# the (n, parties) classes of a paper_point block and of a wide_qudit block,
# and the seeded specs each request-shaped call builds
REQUEST_CLASSES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))
WIDE_REQUEST_CLASSES = ((24, 2), (32, 2), (40, 2), (48, 2), (24, 3))
REQUESTS_PER_CALL = 8
REQUEST_SEED = 23
WIDE_REQUEST_SEED = 35

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


def request_case(label: str, classes, rng: random.Random):
    """(label, call maker): each call builds and generates the same seeded
    specs, one per (n, parties) of ``classes``, as the workload's requests
    do."""
    items = []
    for n, parties in classes:
        shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
        phases = None if rng.random() < 0.5 else tuple(rng.randrange(n) for _ in range(parties))
        alpha = rng.uniform(100.0, 500.0)
        theta = rng.uniform(0.005, 0.05)
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        items.append((n, parties, shifts, phases, alpha, theta, eta))

    def make(module):
        def call():
            return [
                module.generate(module.ProtocolSpec.balanced(
                    n, parties, shifts, theta, alpha, module.DetectorModel(eta), phases
                ))
                for n, parties, shifts, phases, alpha, theta, eta in items
            ]

        return call

    return label, make


def wide_request_classes(rng: random.Random):
    """The (n, parties) class of each spec of the ``req wide`` case: the
    ``wide_qudit`` classes in shuffled blocks, as that workload orders them."""
    classes = []
    while len(classes) < REQUESTS_PER_CALL:
        block = list(WIDE_REQUEST_CLASSES)
        rng.shuffle(block)
        classes += block
    return classes[:REQUESTS_PER_CALL]


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
    wide = random.Random(WIDE_REQUEST_SEED)
    return (
        [generate_case(n, shifts) for n, shifts in GENERATE_CASES]
        + [request_case(f"req n={n}, M={parties}", [(n, parties)] * REQUESTS_PER_CALL, requests)
           for n, parties in REQUEST_CLASSES]
        + [request_case("req wide", wide_request_classes(wide), wide)]
        + [sweep_case(k, n, rng) for k, n in enumerate(SWEEP_NS)]
    )


def masked_repr(module, call) -> str:
    return repr(call()).replace(module.__name__, "qubus_forge")


def cold(module, call):
    """``call`` with ``generate``'s erasure memo cleared before it."""
    clear = module.protocols._erased.clear
    return lambda: (clear(), call())


def time_calls(call, calls: int) -> tuple[float, int]:
    """(seconds per ``call()``, collections started) over ``calls`` calls,
    with the garbage collector on."""
    started = 0

    def count(phase, info):
        nonlocal started
        if phase == "start":
            started += 1

    gc.collect()
    call()  # fills the free lists again
    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        return (time.perf_counter() - start) / calls, started
    finally:
        gc.callbacks.remove(count)


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


# Each function that generate looks up when it runs, as module.name in a
# tree, and the layer its self time goes to.
LAYER_OF = {
    "protocols._attach_party": "attach",
    "protocols._couple": "couple",
    "protocols.herald_vacuum": "herald",
    "protocols.drop_uniform_beam": "herald",
    "protocols.apply_fourier_lomi": "fourier",
    "heralding.feedforward_outcomes": "outcomes",
    "protocols.measure_ancilla_and_feedforward": "checks",
    "protocols._spec_target": "overlap",
    "protocols.overlap_sq": "overlap",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def layer_bindings(module, side: str):
    """(namespace, attribute, layer) of each name of :data:`LAYER_OF` in
    ``module``; a name the tree lacks stops the tool."""
    bindings = []
    for name, layer in LAYER_OF.items():
        owner, attr = name.split(".")
        namespace = getattr(module, owner, None)
        if not callable(getattr(namespace, attr, None)):
            raise SystemExit(f"error: the {side} tree has no {name} for --layers")
        bindings.append((namespace, attr, layer))
    return bindings


def layer_split(bindings, call, calls: int) -> list[float]:
    """Seconds per call of each layer of :data:`LAYERS` over ``calls``
    cold calls, the collector on, each of ``bindings`` rebound to a wrapper
    that adds its call's self time to its layer, then restored."""
    split = dict.fromkeys(LAYERS, 0.0)
    nested = []  # per open wrapped call, the time of the wrapped calls inside it

    def wrap(fn, layer):
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            split[layer] += elapsed - nested.pop()
            if nested:
                nested[-1] += elapsed
            return out

        return timed

    originals = [(namespace, attr, getattr(namespace, attr)) for namespace, attr, _ in bindings]
    try:
        for namespace, attr, layer in bindings:
            setattr(namespace, attr, wrap(getattr(namespace, attr), layer))
        time_calls(call, calls)
    finally:
        for namespace, attr, fn in originals:
            setattr(namespace, attr, fn)
    # time_calls makes one untimed call first, as cold as the rest
    return [split[layer] / (calls + 1) for layer in LAYERS]


def print_layers(splits) -> None:
    """Per class of ``splits`` (label -> side -> one layer split per round):
    each side's median ms per call of each layer and of their total, then
    the median of the per-round ratios change / parent."""
    print("\ncold layer split, ms per call (median of rounds, collector on)")
    print(f"{'case':<16} {'side':<7}" + "".join(f" {layer:>9}" for layer in LAYERS)
          + f" {'total':>9}")
    for label, rounds in splits.items():
        # per side, each column's value in each round, the total last
        columns = {side: list(zip(*[[*split, sum(split)] for split in rounds[side]]))
                   for side in SIDES}
        for side in SIDES:
            print(f"{label:<16} {side:<7}"
                  + "".join(f" {1e3 * statistics.median(c):>9.3f}" for c in columns[side]))
        ratios = [statistics.median(c / p for p, c in zip(parent, change))
                  for parent, change in zip(columns["parent"], columns["change"])]
        print(f"{label:<16} {'ratio':<7}" + "".join(f" {r:>9.3f}" for r in ratios))


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
    if args.layers:
        bindings = {side: layer_bindings(modules[side], side) for side in SIDES}
    memos = {side: modules[side].protocols._erased for side in SIDES}
    generate_labels = {generate_case(n, shifts)[0] for n, shifts in GENERATE_CASES}
    wide_labels = {generate_case(n, shifts)[0] for n, shifts in WIDE_CASES}
    wide = {}  # (side, pass) -> per wide class, its time per call in each round
    splits = {}  # label -> side -> per round, its cold layer split
    passes = ("warm", "cold")  # cold: the erasure memo cleared before each call
    columns = f"{'ratio':>7} {'parent ms':>10} {'change ms':>10}"
    print(f"{'':<16} {'warm':^29} {'cold':^29}  collections per call  memo hits per call")
    print(f"{'case':<16} {columns} {columns} {'parent':>8} {'change':>8}"
          f"  {'parent':>8} {'change':>8}  ({args.rounds} rounds)")
    for label, make in selected:
        calls = {side: make(modules[side]) for side in SIDES}
        colds = {side: cold(modules[side], calls[side]) for side in SIDES}
        outputs = {masked_repr(modules[side], calls[side]) for side in SIDES}
        if len(outputs) != 1:
            raise SystemExit(f"error: outputs differ in case {label}")
        batch = max(1, round(0.02 / time_calls(calls["parent"], 1)[0]))
        times = {(side, p): [] for side in SIDES for p in passes}
        layered = args.layers and label in generate_labels
        if layered:
            splits[label] = {side: [] for side in SIDES}
        started = dict.fromkeys(SIDES, 0)
        hits = dict.fromkeys(SIDES, 0)
        for r in range(args.rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                before = memos[side].hits
                seconds, count = time_calls(calls[side], batch)
                times[side, "warm"].append(seconds)
                started[side] += count
                hits[side] += memos[side].hits - before
                times[side, "cold"].append(time_calls(colds[side], batch)[0])
                if layered:
                    splits[label][side].append(layer_split(bindings[side], colds[side], batch))
        if label in wide_labels:
            for key, seconds in times.items():
                wide.setdefault(key, []).append(seconds)
        row = f"{label:<16}" + timing_columns(times, passes)
        per_call = [started[side] / (args.rounds * batch) for side in SIDES]
        row += f" {per_call[0]:>8.2f} {per_call[1]:>8.2f} "
        # one warm pass a round, of a batch of calls and one untimed call
        warm_calls = args.rounds * (batch + 1)
        row += "".join(f" {hits[side] / warm_calls:>8.2f}" for side in SIDES)
        print(row)
    # each round's times summed over the wide classes, per side and pass
    labels = {label for label, _ in selected}
    if wide_labels <= labels:
        block = {key: [sum(r) for r in zip(*per_case)] for key, per_case in wide.items()}
        print(f"{'wide block':<16}" + timing_columns(block, passes))
    if splits:
        print_layers(splits)


if __name__ == "__main__":
    main()
