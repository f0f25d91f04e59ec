"""Time ``generate`` of two source trees against each other in one process.

    python3 tools/ab_generate.py PARENT_SRC CHANGE_SRC [--rounds N]

Each argument is a ``src`` directory that holds a ``qubus_forge`` package,
for instance ``src`` of this checkout and ``src`` of an exported parent
commit.  Each tree is copied into a temporary directory under its own
package name (``qubus_forge_parent``, ``qubus_forge_change``); the package
imports itself only relatively, so both load side by side.

For each case (n = 3, 24, 32, 40, 48 with two parties and n = 24 with three;
shifts (0, 1) or (0, 1, 5), theta 0.01, alpha 500) the tool first asserts
that both trees return the same ``repr(generate(spec))`` once the package
name is masked.  Then it runs ``--rounds`` rounds, alternating which side
runs first, and times each side with ``time.perf_counter`` over a batch of
calls (about 20 ms of the parent's time, with the garbage collector off).
It prints, per case, the median of the per-round ratios change / parent
and each side's median time per call.

Pin the process to one CPU for steadier numbers, e.g. ``taskset -c 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

# (n, shifts): two parties over a range of n, and three at n = 24
CASES = ((3, (0, 1)), (24, (0, 1)), (32, (0, 1)), (40, (0, 1)), (48, (0, 1)), (24, (0, 1, 5)))


def load(src: Path, side: str, into: Path):
    """Import ``src/qubus_forge`` as the package ``qubus_forge_<side>``."""
    package = src / "qubus_forge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no qubus_forge package")
    name = f"qubus_forge_{side}"
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def spec_of(module, n: int, shifts: tuple[int, ...]):
    return module.ProtocolSpec.balanced(n, len(shifts), shifts, 0.01, 500.0)


def masked_repr(module, n: int, shifts: tuple[int, ...]) -> str:
    report = module.generate(spec_of(module, n, shifts))
    return repr(report).replace(module.__name__, "qubus_forge")


def time_calls(module, spec, calls: int) -> float:
    """Seconds per ``generate(spec)`` call, over ``calls`` calls."""
    generate = module.generate
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            generate(spec)
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sources = (args.parent_src, args.change_src)
        modules = {side: load(src, side, Path(tmp)) for side, src in zip(SIDES, sources)}
        header = f"{'case':<16} {'ratio':>7} {'parent ms':>10} {'change ms':>10}"
        print(f"{header}  ({args.rounds} rounds)")
        for n, shifts in CASES:
            outputs = {masked_repr(modules[side], n, shifts) for side in SIDES}
            if len(outputs) != 1:
                raise SystemExit(f"error: outputs differ at n = {n}, shifts = {shifts}")
            specs = {side: spec_of(modules[side], n, shifts) for side in SIDES}
            calls = max(1, round(0.02 / time_calls(modules["parent"], specs["parent"], 1)))
            times = {side: [] for side in SIDES}
            for r in range(args.rounds):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    times[side].append(time_calls(modules[side], specs[side], calls))
            ratio = statistics.median(c / p for p, c in zip(times["parent"], times["change"]))
            medians = [1e3 * statistics.median(times[side]) for side in SIDES]
            label = f"n={n}, M={len(shifts)}"
            print(f"{label:<16} {ratio:>7.3f} {medians[0]:>10.3f} {medians[1]:>10.3f}")


if __name__ == "__main__":
    main()
