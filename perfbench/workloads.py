"""The four benchmark workloads: seeded input streams and the request each
input makes through the public qubus_forge API.

Every workload is a closed loop with one caller.  Inputs come in blocks; a
block holds one input of each cost class the workload mixes (n, parties,
grid size), in seeded order, and a run always measures whole blocks.  So the
share of each class is the same for every seed and run length, and the
percentiles the benchmark reports fall inside a class instead of on the edge
between two (see ``tail_pct`` and README.md).

The library is called through the ``qubus_forge`` package namespace, so the
traced run's rebinding of those names reaches these calls too.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import qubus_forge as qf

import oracle

CLI_TIMEOUT_S = 60.0


def _protocol_item(rng: random.Random, n: int, parties: int):
    """One ``generate`` request: (n, parties, shifts, phases, alpha, theta, eta).

    ``phases`` is None for balanced coefficients, else one phase index per
    party.  eta is 1 (ideal detector) half of the time.
    """
    shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
    phases = None if rng.random() < 0.5 else tuple(rng.randrange(n) for _ in range(parties))
    alpha = rng.uniform(100.0, 500.0)
    theta = rng.uniform(0.005, 0.05)
    eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
    return (n, parties, shifts, phases, alpha, theta, eta)


def _protocol_block(classes):
    def make(rng: random.Random):
        order = list(classes)
        rng.shuffle(order)
        return tuple(_protocol_item(rng, n, parties) for n, parties in order)

    return make


def _grid_item(rng: random.Random, n: int):
    """One 10 x 5 x 4 sweep grid: (n, alphas, thetas, etas), theta log-uniform."""
    alphas = tuple(sorted(rng.uniform(50.0, 500.0) for _ in range(10)))
    thetas = tuple(sorted(10.0 ** rng.uniform(-3.0, -1.0) for _ in range(5)))
    etas = tuple(sorted(rng.uniform(0.5, 1.0) for _ in range(4)))
    return (n, alphas, thetas, etas)


def _grid_block(rng: random.Random):
    order = [3, 3, 5]
    rng.shuffle(order)
    return tuple(_grid_item(rng, n) for n in order)


def _cli_block(rng: random.Random):
    return ((rng.uniform(100.0, 500.0), rng.uniform(0.005, 0.05)),)


def run_generate(item):
    n, parties, shifts, phases, alpha, theta, eta = item
    spec = qf.ProtocolSpec.balanced(
        n,
        parties,
        shifts=shifts,
        theta=theta,
        alpha=alpha,
        detector=qf.DetectorModel.on_off(eta),
        phase_indices=phases,
    )
    return qf.generate(spec)


def run_sweep(item):
    n, alphas, thetas, etas = item
    return qf.run_sweep(qf.SweepGrid(alphas, thetas, etas, n=n))


def cli_args(item) -> list[str]:
    alpha, theta = item
    return [
        "generate", "--n", "3", "--shifts", "0,1", "--balanced",
        "--alpha", repr(alpha), "--theta", repr(theta),
    ]


def run_cli(item):
    """One fresh ``python -m qubus_forge.cli`` process; (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qubus_forge.cli", *cli_args(item)],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        env=os.environ,
    )
    return proc.returncode, proc.stdout


def check_cli(item, result):
    returncode, stdout = result
    return oracle.check_cli(item, returncode, stdout)


def fingerprint(result) -> str:
    """Digest of every float and label of a result, for exact comparison."""
    return hashlib.blake2b(repr(result).encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Percentile reported as latency_tail_ms.  Fixed per workload so that
    #: runs of different commits compare the same percentile; chosen so that
    #: at least ten samples lie beyond it in a run and so that it falls inside
    #: one cost class of the block mix.
    tail_pct: float
    #: Blocks materialized during set-up; the stream continues beyond them.
    prebuilt_blocks: int
    #: What one point of points_per_s is.
    point: str
    make_block: Callable[[random.Random], tuple]
    request: Callable
    check: Callable[[object, object], list]
    points: Callable[[object], int]
    in_process: bool = True

    def blocks(self, seed: int):
        """Endless deterministic stream of input blocks for ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.make_block(rng)

    def prebuild(self, seed: int):
        """Set-up: the stream with its first blocks already built."""
        stream = self.blocks(seed)
        return list(itertools.islice(stream, self.prebuilt_blocks)), stream


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_point",
            why="small generate specs in the paper's range (n 2..5, 2-3 parties); "
            "fixed per-call cost dominates",
            tail_pct=95.0,
            prebuilt_blocks=1024,
            point="one generate spec",
            # n = 3 with two parties, the paper's working point, twice per block.
            make_block=_protocol_block(
                ((2, 2), (2, 3), (3, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))
            ),
            request=run_generate,
            check=oracle.check_report,
            points=lambda item: 1,
        ),
        Workload(
            name="wide_qudit",
            why="generate at n 24..48, mostly 2 parties; terms grow as n^2 so "
            "canonicalize and herald_vacuum dominate",
            tail_pct=75.0,
            prebuilt_blocks=64,
            point="one generate spec",
            make_block=_protocol_block(((24, 2), (32, 2), (40, 2), (48, 2), (24, 3))),
            request=run_generate,
            check=oracle.check_report,
            points=lambda item: 1,
        ),
        Workload(
            name="sweep_grid",
            why="run_sweep over seeded 10x5x4 grids at n 3 and 5; the only path "
            "through analysis",
            tail_pct=75.0,
            prebuilt_blocks=64,
            point="one sweep grid point",
            make_block=_grid_block,
            request=run_sweep,
            check=oracle.check_sweep,
            points=lambda item: len(item[1]) * len(item[2]) * len(item[3]),
        ),
        Workload(
            name="cli_cold",
            why="fresh CLI generate processes at n 3; interpreter start, imports "
            "and rendering dominate",
            tail_pct=75.0,
            prebuilt_blocks=256,
            point="one CLI generate run",
            make_block=_cli_block,
            request=run_cli,
            check=check_cli,
            points=lambda item: 1,
            in_process=False,
        ),
    )
}
