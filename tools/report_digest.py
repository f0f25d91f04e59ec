"""Print one sha256 over the full ``repr`` of a fixed, seeded set of results.

Run it from a checkout, before and after a change that must not move any
output; equal digests mean every report below is bit-identical:

    python3 tools/report_digest.py

The set covers 150 random ``generate`` reports (n 2..9, 2-3 parties, random
shifts, phase indices or explicit coefficients, complex alpha, eta), the four
wide shapes of the ``wide_qudit`` benchmark workload (n 32, 40, 48 with two
parties and n 24 with three), 6 ``run_sweep`` grids (etas 0, one random and
1) and 60 ``sweep_point`` calls (n 2..9, theta up to 1).  A rejected input
contributes its exception type and message, so a change in what is rejected
moves the digest too.  Only the public API is used.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qubus_forge import (  # noqa: E402
    DetectorModel,
    ProtocolSpec,
    SweepGrid,
    generate,
    run_sweep,
    sweep_point,
)


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _random_coeffs(rng: random.Random, n: int) -> tuple[complex, ...]:
    vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
    return tuple(c / norm for c in vec)


def _random_spec(rng: random.Random) -> ProtocolSpec:
    n = rng.randint(2, 9)
    parties = rng.choice((2, 2, 3))
    shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
    theta = 10 ** rng.uniform(-3, -0.5)
    alpha = rng.uniform(20, 900) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    eta = rng.choice((1.0, rng.uniform(0.5, 1.0)))
    detector = DetectorModel.on_off(eta)
    if rng.random() < 0.8:
        phases = tuple(rng.randrange(n) for _ in range(parties))
        return ProtocolSpec.balanced(
            n, parties, shifts, theta, alpha, detector, phase_indices=phases
        )
    coeffs = tuple(_random_coeffs(rng, n) for _ in range(parties))
    return ProtocolSpec(n, parties, shifts, coeffs, theta, alpha, detector)


def results():
    """Yield the ``repr`` of every result, in a fixed order."""
    rng = random.Random("report_digest:generate")
    for _ in range(150):
        yield _outcome(lambda: generate(_random_spec(rng)))

    for n, shifts, phases in (
        (32, (0, 1), (0, 0)),
        (40, (0, 7), (3, 1)),
        (48, (0, 1), (5, 0)),
        (24, (0, 1, 5), (0, 2, 9)),
    ):
        spec = ProtocolSpec.balanced(
            n, len(shifts), shifts, 0.01, 500.0, phase_indices=phases
        )
        yield _outcome(generate, spec)

    rng = random.Random("report_digest:run_sweep")
    for n in (2, 3, 3, 4, 5, 7):
        alphas = tuple(rng.uniform(20, 900) for _ in range(3))
        thetas = tuple(10 ** rng.uniform(-3, -0.5) for _ in range(3))
        etas = (0.0, rng.uniform(0.0, 1.0), 1.0)
        yield _outcome(lambda: run_sweep(SweepGrid(alphas, thetas, etas, n)))

    rng = random.Random("report_digest:sweep_point")
    for _ in range(60):
        n = rng.randint(2, 9)
        alpha = rng.uniform(0, 900)
        theta = rng.uniform(0, 1)
        eta = rng.uniform(0, 1)
        yield _outcome(sweep_point, alpha, theta, eta, n)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for text in results():
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
        count += 1
    print(f"{digest.hexdigest()}  ({count} results)")


if __name__ == "__main__":
    main()
