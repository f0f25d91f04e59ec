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
moves the digest too.  Only the public API is used.  ``generate_specs()``
yields the ``generate`` inputs, so that a test can check those reports
against another oracle.

Every state protocol traffic builds holds each label once, so three more
sets pin what it does not reach: every
``target_state(n, m, k)`` for n 2..8 and a few multi-party shift tuples,
``prepare_single_photon_qudit(n)`` for n 1..16, and ``canonicalize``,
``state_norm_sq``, ``inner_product``, ``herald_vacuum`` and
``coherent_overlap`` on 100 seeded hand-built states.  Those states repeat
labels, put beams within and just beyond ``MERGE_TOL`` of each other, use
signed zeros and hold amplitude pairs that cancel below ``DROP_TOL``.  The
last set runs the elements and the erasure on 60 more such states, each with
a 2- or 3-mode spatial register, two parties of which at least one has a
dimension other than the register's, and 0, 2 or 3 beams: ``apply_fourier_lomi``,
``feedforward_outcomes`` with correction party 0 and 1 (on the state and
on its Fourier transform), ``apply_bs_5050``, ``apply_qubus_phase`` and
``apply_xpm``.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qubus_forge import (  # noqa: E402
    DetectorModel,
    HybridState,
    ProtocolSpec,
    RegisterLayout,
    SweepGrid,
    Term,
    apply_bs_5050,
    apply_fourier_lomi,
    apply_qubus_phase,
    apply_xpm,
    canonicalize,
    coherent_overlap,
    feedforward_outcomes,
    generate,
    herald_vacuum,
    inner_product,
    prepare_single_photon_qudit,
    run_sweep,
    state_norm_sq,
    sweep_point,
    target_state,
)

# The library's merge and drop tolerances (state.MERGE_TOL, state.DROP_TOL),
# restated so that only the public API is imported.
MERGE_TOL = 1e-12
DROP_TOL = 1e-14


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _random_coeffs(rng: random.Random, n: int) -> tuple[complex, ...]:
    vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
    return tuple(c / norm for c in vec)


def _random_spec(rng: random.Random):
    """A builder of one random spec: every draw is made here, and the
    ``ProtocolSpec`` is built, or rejected, when the builder is called."""
    n = rng.randint(2, 9)
    parties = rng.choice((2, 2, 3))
    shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
    theta = 10 ** rng.uniform(-3, -0.5)
    alpha = rng.uniform(20, 900) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    eta = rng.choice((1.0, rng.uniform(0.5, 1.0)))
    detector = DetectorModel(eta)
    if rng.random() < 0.8:
        phases = tuple(rng.randrange(n) for _ in range(parties))
        return functools.partial(
            ProtocolSpec.balanced, n, parties, shifts, theta, alpha, detector,
            phase_indices=phases,
        )
    coeffs = tuple(_random_coeffs(rng, n) for _ in range(parties))
    return functools.partial(ProtocolSpec, n, parties, shifts, coeffs, theta, alpha, detector)


def _beam_near(rng: random.Random, q: complex) -> complex:
    """``q``, or a beam within, at or just beyond MERGE_TOL of it, or ``q``
    with its zero parts negated."""
    scale = MERGE_TOL * max(1.0, abs(q))
    kind = rng.randrange(5)
    if kind == 0:
        return q
    if kind == 4:
        return complex(-q.real if q.real == 0 else q.real, -q.imag if q.imag == 0 else q.imag)
    step = (0.3, 0.999, 3.0)[kind - 1] * scale
    return q + step * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _hand_built_state(rng: random.Random, layout: RegisterLayout) -> HybridState:
    """Terms on a few repeated labels whose beams sit near a few base tuples;
    beam 0 of some base tuples is vacuum, and some amplitude pairs cancel."""
    dims = layout.label_dims()
    pool = [tuple(rng.randrange(d) for d in dims) for _ in range(rng.randint(1, 3))]
    bases = []
    for _ in range(rng.randint(1, 3)):
        beams = []
        for _ in range(layout.qubus_count):
            size = rng.choice((0.0, 0.0, 1e-13, 0.7, 30.0, 500.0))
            beams.append(size * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        bases.append(tuple(beams))
    terms = []
    for _ in range(rng.randint(1, 7)):
        amp = complex(rng.gauss(0, 1), rng.choice((rng.gauss(0, 1), 0.0, -0.0)))
        labels = rng.choice(pool)
        qubus = tuple(_beam_near(rng, q) for q in rng.choice(bases))
        terms.append(Term(amp, labels, qubus))
        if rng.random() < 0.25:  # a partner that cancels it below DROP_TOL
            nudge = 0.5 * DROP_TOL * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            terms.append(Term(-amp + nudge, labels, qubus))
    rng.shuffle(terms)
    return HybridState(layout, terms)


def _normalized(state: HybridState) -> HybridState:
    norm_sq = state_norm_sq(state)
    if not norm_sq > 0.0:  # every amplitude cancelled
        raise ValueError(f"squared norm {norm_sq!r}")
    scale = 1.0 / math.sqrt(norm_sq)
    return HybridState(
        state.layout, [Term(t.amp * scale, t.labels, t.qubus) for t in state.terms]
    )


def generate_specs():
    """Yield a builder of each ``generate`` spec of the digest, in order: a
    function of no arguments that returns the spec, or raises as
    ``ProtocolSpec`` does for an input it rejects.  The 150 random specs
    come first, then the four wide shapes."""
    rng = random.Random("report_digest:generate")
    for _ in range(150):
        yield _random_spec(rng)

    for n, shifts, phases in (
        (32, (0, 1), (0, 0)),
        (40, (0, 7), (3, 1)),
        (48, (0, 1), (5, 0)),
        (24, (0, 1, 5), (0, 2, 9)),
    ):
        yield functools.partial(
            ProtocolSpec.balanced, n, len(shifts), shifts, 0.01, 500.0,
            phase_indices=phases,
        )


def results():
    """Yield the ``repr`` of every result, in a fixed order."""
    for build in generate_specs():
        yield _outcome(lambda: generate(build()))

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

    for n in range(2, 9):
        for m in range(n):
            for k in range(n):
                yield _outcome(target_state, n, m, k)
    for n, m, shifts in ((3, 1, (0, 1, 2)), (4, 3, (0, 3, 1)), (5, 2, (0, 0, 4)),
                         (6, 5, (0, 2, 5, 1))):
        yield _outcome(target_state, n, m, shifts, len(shifts))

    for n in range(1, 17):
        yield _outcome(prepare_single_photon_qudit, n)

    rng = random.Random("report_digest:hand_built")
    for _ in range(100):
        layout = RegisterLayout(
            party_dims=(rng.randint(1, 3),) * rng.randint(1, 2),
            ancilla_modes=rng.choice((0, 2)),
            qubus_count=rng.randint(1, 2),
        )
        state = _hand_built_state(rng, layout)
        other = _hand_built_state(rng, layout)
        yield _outcome(canonicalize, state)
        yield _outcome(state_norm_sq, state)
        yield _outcome(inner_product, state, other)
        yield _outcome(lambda: herald_vacuum(
            _normalized(state), 0, DetectorModel(rng.uniform(0.5, 1.0))
        ))
        yield repr([coherent_overlap(p, q) for p, q in zip(state.beams[0], other.beams[0])])

    rng = random.Random("report_digest:kernels")
    for _ in range(60):
        n = rng.choice((2, 3))
        dims = [rng.randint(1, 5), rng.randint(n + 1, n + 3)]  # a party dim > n
        rng.shuffle(dims)
        beams = rng.choice((0, 2, 3))
        layout = RegisterLayout(party_dims=tuple(dims), ancilla_modes=n, qubus_count=beams)
        state = _hand_built_state(rng, layout)
        fourier = apply_fourier_lomi(state)
        yield repr(fourier)
        for erased in (state, fourier):
            for party in (0, 1):
                yield _outcome(feedforward_outcomes, erased, party)
        if beams:
            pair = tuple(rng.sample(range(beams), 2))
            yield _outcome(apply_bs_5050, state, pair)
            beam = rng.randrange(beams)
            yield _outcome(apply_qubus_phase, state, beam, rng.uniform(-math.pi, math.pi))
            yield _outcome(
                apply_xpm, state, rng.randrange(2), rng.randrange(n), beam,
                rng.uniform(-0.5, 0.5),
            )


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
