"""End-to-end generation circuits.

Single-photon spatial-qudit preparation, the per-party entangling stage
(XPM coupling, displacement, beam-splitter interference, vacuum herald),
multi-party composition, and constructors for the maximally entangled
target states.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from .elements import (
    apply_bs_5050,
    apply_fourier_lomi,
    apply_pbs,
    apply_qubus_phase,
    apply_su2,
    apply_xpm,
    pol_flip,
    prep_rotation,
)
from .heralding import (
    DetectorModel,
    HeraldOutcome,
    herald_vacuum,
    measure_ancilla_and_feedforward,
)
from .state import (
    POL_H,
    POL_V,
    HybridState,
    RegisterLayout,
    _check_working_point,
    _columns,
    _count,
    _derive,
    _integer,
    _logaddexp_reduce,
    _number,
    _shown,
    drop_uniform_beam,
    overlap_sq,
)


def phased_coeffs(n: int, m: int) -> tuple[complex, ...]:
    """Balanced coefficients with the linear phase pattern tau^{j m},
    tau = exp(2 pi i / n).

    n is bounded by :data:`state.N_MAX`, and m by the float range of the
    largest phase 2 pi (n - 1) m; both are checked before the vector is
    built.  A vector depends on (n, m) alone, so it is kept in a bounded
    memo.
    """
    m = _integer(m, "m")  # a fractional m is no phase pattern tau^{j m}
    _number(float, n, "n")  # n and m reach float arithmetic below
    n = _count(n, "n")  # and (3.0, m) would be a memo key equal to (3, m)
    _number(float, m, "m")
    # the phase 2 pi j m is largest at j = n - 1, and past float range it
    # is inf, whose exp is NaN
    if not math.isfinite(2 * math.pi * (n - 1) * m):
        raise ValueError(f"m = {_shown(m)} puts the phase 2 pi j m / n beyond float range")
    return _phase_pattern(n, m)


@functools.lru_cache(maxsize=256)
def _phase_pattern(n: int, m: int) -> tuple[complex, ...]:
    """The vector of :func:`phased_coeffs`, for checked integers n and m.

    Kept in a bounded memo of 256 vectors, under 11 MB at n <= N_MAX, like
    the phase rows of :func:`elements._fourier_row`.
    """
    scale = 1.0 / math.sqrt(n)
    return tuple([scale * cmath.exp(2j * math.pi * j * m / n) for j in range(n)])


def _check_shifts(shifts: tuple[int, ...], n: int, parties: int) -> None:
    """One shift per party, each in [0, n), the first one 0."""
    if len(shifts) != parties:
        raise ValueError("need one shift per party")
    if any(not 0 <= k < n for k in shifts):
        raise ValueError("shifts must lie in [0, n)")
    if shifts[0] != 0:
        raise ValueError("the first party's shift must be 0")


# How far the squared norm of a coefficient vector may sit from 1.
# phased_coeffs lands within ~1e-16; 1e-12 also admits a vector entered by
# hand (--coeffs), off by its rounding.
COEFF_NORM_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolSpec:
    """Complete description of one generation run.

    shifts[0] must be 0 (the first party fixes the reference frame); all
    shifts zero gives the symmetric form.  Each coefficient vector must have
    unit norm.
    """

    n: int
    parties: int
    shifts: tuple[int, ...]
    coeffs: tuple[tuple[complex, ...], ...]
    theta: float
    alpha: complex
    detector: DetectorModel = DetectorModel()

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "parties", _count(self.parties, "parties"))
        object.__setattr__(self, "shifts", tuple([_integer(k, "shifts") for k in self.shifts]))
        object.__setattr__(self, "coeffs", tuple([tuple(map(complex, v)) for v in self.coeffs]))
        object.__setattr__(self, "theta", _number(float, self.theta, "theta"))
        object.__setattr__(self, "alpha", _number(complex, self.alpha, "alpha"))
        _check_working_point(self.n, self.theta, self.alpha)
        if self.parties < 2:
            raise ValueError("party count must be >= 2")
        _check_shifts(self.shifts, self.n, self.parties)
        if len(self.coeffs) != self.parties:
            raise ValueError("need one coefficient vector per party")
        for vec in self.coeffs:
            if len(vec) != self.n:
                raise ValueError("coefficient vectors must have length n")
            norm = sum(c.real * c.real + c.imag * c.imag for c in vec)
            if not abs(norm - 1.0) <= COEFF_NORM_TOL:  # a NaN norm fails too
                raise ValueError("coefficient vectors must have unit norm")
        if not isinstance(self.detector, DetectorModel):
            raise TypeError("detector must be a DetectorModel")

    @classmethod
    def balanced(
        cls,
        n: int,
        parties: int = 2,
        shifts=None,
        theta: float = 0.01,
        alpha: complex = 500.0,
        detector: DetectorModel | None = None,
        phase_indices=None,
    ) -> "ProtocolSpec":
        """Spec with balanced coefficients, optionally phased per party."""
        # bounded integers before the defaults (0,) * parties use them
        n, parties = _count(n, "n"), _count(parties, "parties")
        if shifts is None:
            shifts = (0,) * parties
        if phase_indices is None:
            phase_indices = (0,) * parties
        coeffs = tuple(phased_coeffs(n, m) for m in phase_indices)
        return cls(
            n=n,
            parties=parties,
            shifts=tuple(shifts),
            coeffs=coeffs,
            theta=theta,
            alpha=alpha,
            detector=detector if detector is not None else DetectorModel(),
        )


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of a full generation run.

    ``fidelity_vs_target`` is the overlap of the final state with the
    spec's closed form sum_j A_j (x)_i |(j + k_i) mod n>_i,
    A_j = prod_i c_i[(j + k_i) mod n], for any coefficient vectors; it is
    None only when a stage failed.  ``failed_stage`` names the first stage
    whose herald had no vacuum branch, if any.

    ``success_prob`` is the product of the stage probabilities and can
    underflow to 0.0 although every stage heralded (n = 3 with 700 parties
    gives 3^-700): ``failed_stage`` is None then, and only it tells a
    failed run from an underflowed one.

    ``error_prob_total`` is 1 - prod(1 - P_E) over the stages run, and
    ``error_prob_total_log`` its natural log, which stays meaningful when
    the probability underflows and is -inf only when it is exactly 0.
    """

    final_state: HybridState
    success_prob: float
    error_prob_total: float
    error_prob_total_log: float
    per_stage: tuple[HeraldOutcome, ...]
    fidelity_vs_target: float | None = None
    failed_stage: int | None = None


def prepare_single_photon_qudit(n: int) -> HybridState:
    """Balanced single-photon spatial qudit (1/sqrt(n)) sum_j |j>_s.

    Built by the physical cascade: a horizontally polarized photon passes a
    chain of polarization rotations and polarizing beam splitters that peel
    amplitude 1/sqrt(n) into each spatial mode, with a final polarization
    flip so every mode carries |V>.

    The state depends on n alone, so it is kept in a bounded memo: calls
    with one n share one immutable state while it stays there.
    """
    return _prepared(_count(n, "n"))


@functools.lru_cache(maxsize=32)
def _prepared(n: int) -> HybridState:
    """Run the preparation cascade of :func:`prepare_single_photon_qudit`."""
    prep_layout = RegisterLayout(prep_modes=n + 1)
    work = prep_layout.work_mode
    state = _columns(prep_layout, (1 + 0j,), ((work, POL_H),), ())
    for j in range(n - 1):
        state = apply_su2(state, prep_rotation(n, j))
        state = apply_pbs(state, work, j)
    state = apply_su2(state, pol_flip())
    state = apply_pbs(state, work, n - 1)

    pol_slot = prep_layout.prep_pol_slot
    sp_slot = prep_layout.prep_spatial_slot
    for labels in state.labels:
        if labels[pol_slot] != POL_V or labels[sp_slot] >= n:
            raise RuntimeError("preparation cascade left a stray component")
    labels = tuple([(labels[sp_slot],) for labels in state.labels])
    return _derive(state, layout=RegisterLayout(ancilla_modes=n), labels=labels)


def _attach_party(state: HybridState, coeffs, alpha: complex) -> HybridState:
    """Tensor a fresh party register sum_m coeffs[m] |m> and a fresh
    (|alpha>, |alpha>) qubus pair onto a state that holds a single-photon
    spatial register of len(coeffs) modes.

    The new party's label m goes after the labels of the parties before it
    (the head of each label tuple).  Each run of source terms with equal
    heads takes every m in turn, and the run's terms in source order for
    each m, so a state whose labels are in order gives one whose labels are
    in order, and :func:`canonicalize` returns it as it is.  Terms with
    equal labels keep their source order, so any state canonicalizes to the
    same state as before.

    Each source term first gives its terms in a row, one per m with a
    nonzero coefficient.  That is the order of a run of one term, and past
    the first stage of a protocol every head is held by one term.  A run of
    two or more, such as the first stage's single run of empty heads, is
    then regrouped m by m: its block is read with a stride of that many
    terms, once from each m.
    """
    layout = state.layout
    if layout.ancilla_modes == 0:
        raise ValueError("stage needs a single-photon spatial register")
    if len(coeffs) != layout.ancilla_modes:
        raise ValueError("coefficient vector length must match the register size")
    new_layout = layout.replace(
        party_dims=layout.party_dims + (len(coeffs),),
        qubus_count=layout.qubus_count + 2,
    )
    cut = layout.num_parties
    alpha = complex(alpha)
    picked = [((m,), c) for m, c in enumerate(coeffs) if c != 0]
    heads = [labels[:cut] for labels in state.labels]
    amps = tuple([amp * c for amp in state.amps for _, c in picked])
    # each source term's tail slices once (for x in [...] binds a value)
    labels = tuple([
        head + m + tail
        for head, labels in zip(heads, state.labels)
        for tail in [labels[cut:]]
        for m, _ in picked
    ])
    beams = tuple(tuple([q for q in col for _ in picked]) for col in state.beams)
    # run r is terms starts[r] to starts[r + 1]; a run starts where the head changes
    changes = itertools.compress(range(1, len(heads)), map(operator.ne, heads, heads[1:]))
    starts = [0, *changes, len(heads)]
    if len(starts) <= len(heads):  # a run holds two or more terms
        p = len(picked)
        reads = [slice(a * p + k, b * p, p) for a, b in zip(starts, starts[1:]) for k in range(p)]

        def regroup(col):
            return tuple(itertools.chain.from_iterable(map(col.__getitem__, reads)))

        amps, labels, beams = regroup(amps), regroup(labels), tuple(map(regroup, beams))
    return _derive(state, layout=new_layout, amps=amps, labels=labels,
                   beams=beams + ((alpha,) * len(amps),) * 2)


def _couple(state: HybridState, shift: int, theta: float) -> tuple[HybridState, int]:
    """The rest of one entangling stage before its herald, on a state that
    :func:`_attach_party` returned: couple the newest party and the spatial
    register to the second beam of the newest qubus pair, interfere the pair.

    Returns the state and the index of the beam the herald detector reads.
    """
    layout = state.layout
    n = layout.ancilla_modes
    base = layout.qubus_count - 2
    st = apply_xpm(state, layout.num_parties - 1, shift, base + 1, theta)
    st = apply_qubus_phase(st, base + 1, -(n - 1) * theta)
    return apply_bs_5050(st, (base, base + 1)), base


def _run_stage(
    state: HybridState,
    coeffs,
    shift: int,
    theta: float,
    alpha: complex,
    detector: DetectorModel,
) -> HeraldOutcome:
    """One entangling stage: attach a party, couple it and the spatial
    register to a fresh qubus pair, interfere, herald on vacuum."""
    st, beam = _couple(_attach_party(state, coeffs, alpha), shift, theta)
    outcome = herald_vacuum(st, beam, detector)
    if outcome.success_prob <= 0.0:
        return outcome
    # The surviving beam is |sqrt(2) alpha> in every term: a spectator.
    return HeraldOutcome(
        drop_uniform_beam(outcome.heralded_state, beam),
        outcome.success_prob,
        outcome.error_prob,
        outcome.error_prob_log,
        outcome.branch_table,
    )


def entangle_stage(
    state: HybridState, spec: ProtocolSpec, party: int
) -> HeraldOutcome:
    """Run the entangling stage of one party of ``spec`` on ``state``."""
    if not 0 <= _integer(party, "party") < spec.parties:
        raise ValueError(f"party index {party} out of range")
    return _run_stage(
        state,
        spec.coeffs[party],
        spec.shifts[party],
        spec.theta,
        spec.alpha,
        spec.detector,
    )


# The layout with no register, from which target_state derives its own
# through the layout memo
_NO_REGISTERS = RegisterLayout()


def target_state(n: int, m: int, k, parties: int = 2) -> HybridState:
    """Maximally entangled target (1/sqrt(n)) sum_j tau^{jm} (x)_i |(j+k_i) mod n>.

    ``k`` may be a single shift (applied to every party after the first,
    which carries shift 0) or an explicit per-party shift sequence starting
    with 0.  All shifts zero gives the symmetric family; tau = exp(2 pi i/n).
    """
    parties = _count(parties, "parties")
    n = _count(n, "n")  # labels are built-in ints, whatever type n has
    if not 0 <= _integer(m, "m") < n:
        raise ValueError("phase index m must lie in [0, n)")
    if isinstance(k, (list, tuple)):
        shifts = tuple([_integer(s, "k") for s in k])
    else:
        shifts = (0,) + (_integer(k, "k"),) * (parties - 1)
    _check_shifts(shifts, n, parties)
    layout = _NO_REGISTERS.replace(party_dims=(n,) * parties)
    labels = tuple([tuple([(j + s) % n for s in shifts]) for j in range(n)])
    return _columns(layout, phased_coeffs(n, m), labels, ())


def _spec_target(spec: ProtocolSpec) -> HybridState:
    """The state a heralded run of ``spec`` ends in, up to norm and phase:
    sum_j A_j (x)_i |(j + k_i) mod n>_i with A_j = prod_i c_i[(j + k_i) mod n],
    on the layout and labels of ``target_state(n, 0, shifts, parties)``.

    The running product is divided by its largest |A_j| after each party,
    since a plain one underflows (3^-350 at n = 3 with 700 parties, whose
    square rounds to 0.0).  A run that reaches its target heralded
    every stage, so no partial product is all zero; a zero A_j stays as a
    zero-amplitude term.
    """
    amps = (1.0,) * spec.n
    for vec, k in zip(spec.coeffs, spec.shifts):
        amps = list(map(operator.mul, amps, vec[k:] + vec[:k]))
        top = max(map(abs, amps))
        amps = [a / top for a in amps]
    balanced = target_state(spec.n, 0, spec.shifts, spec.parties)
    return _columns(balanced.layout, tuple(amps), balanced.labels, ())


# Label cells the erasure memo may hold: a cell is one label of one term,
# counted over each entry's input and output state.  An entry holds its key
# (the layout and the bytes of the labels and amplitudes; protocol states
# hold no beam by then) and its output state.  Filled with the
# smallest entries (n = 2, two parties, 10 cells each) the memo retains 72
# bytes per cell, and with n = 1024 entries whose labels are all ints past 256
# (28 bytes each) 29-42 (tracemalloc, CPython 3.11): under 0.6 MB in all,
# whatever n and the party count.  8192 cells keep ~330 paper_point families
# (n 2..5, 2-3 parties) or ~45 wide ones (n 24..48).  An entry-count bound
# would bound no bytes: one entry at N_MAX x PARTIES_MAX holds ~2 million
# cells.  An entry larger than the budget is not kept.
_ERASURE_CELLS = 8192


def _exact_key(state: HybridState):
    """The layout, and the labels and the bits of every amplitude and beam
    of ``state`` as bytes: equal keys are bit-identical states.  A state's
    own ``==`` counts -0.0 equal to 0.0, so a state cannot be the key.  The
    layout fixes how many labels and beams a term has, so the bytes split
    one way only; as bytes the labels take 8 bytes each, where the label
    tuples would take ~24 (n 24..48, two parties)."""
    parts = [x for col in (state.amps, *state.beams) for z in col for x in (z.real, z.imag)]
    labels = array("q", itertools.chain.from_iterable(state.labels))
    return state.layout, labels.tobytes(), array("d", parts).tobytes()


def _cells(state: HybridState) -> int:
    """The label cells of ``state``: its layout fixes every label's length."""
    return len(state.labels) * len(state.layout.label_dims())


class _ErasureMemo:
    """``measure_ancilla_and_feedforward(apply_fourier_lomi(state), 0)``,
    memoized on :func:`_exact_key` and bounded by ``budget`` label cells,
    least recently used first out.

    A miss runs those two public functions, looked up in this module when
    called, and an erasure that raises stores nothing.  ``hits`` and
    ``misses`` count the calls.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()  # key -> (cells, erased state)
        self.cells = 0
        self.hits = self.misses = 0
        self._lock = threading.Lock()

    def __call__(self, state: HybridState) -> HybridState:
        key = _exact_key(state)
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self.misses += 1
        erased = measure_ancilla_and_feedforward(apply_fourier_lomi(state), correction_party=0)
        cells = _cells(state) + _cells(erased)
        with self._lock:
            if cells <= self.budget and key not in self.entries:
                self.entries[key] = (cells, erased)
                self.cells += cells
                while self.cells > self.budget:
                    self.cells -= self.entries.popitem(last=False)[1][0]
        return erased

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.cells = self.hits = self.misses = 0


_erased = _ErasureMemo(_ERASURE_CELLS)


def generate(spec: ProtocolSpec) -> GenerationReport:
    """Run the full protocol: preparation, one entangling stage per party,
    Fourier erasure of the spatial register, feedforward.

    The overall success probability is the product of the per-stage herald
    probabilities; the total error probability is 1 - prod(1 - P_E,stage).

    The erasure's input, the heralded state of the last stage, depends on
    n, the shifts and the coefficients, not on alpha, theta or eta.  So the
    erasure (Fourier transform, feedforward and the check that every
    detection outcome agrees) is kept in a bounded memo, keyed on the exact
    bits of that state: a repeated family reuses it, and its reports may
    share one immutable ``final_state``.  The memo holds at most 8192 label
    cells (one label of one term), under 0.6 MB whatever n and the party
    count; an erasure that raises is not kept, so it raises on every call.
    """
    state = prepare_single_photon_qudit(spec.n)
    outcomes: list[HeraldOutcome] = []
    success, fidelity, failed_stage = 1.0, None, None
    for party in range(spec.parties):
        outcome = entangle_stage(state, spec, party)
        outcomes.append(outcome)
        state = outcome.heralded_state
        if outcome.success_prob <= 0.0:
            success, failed_stage = 0.0, party
            break
        success *= outcome.success_prob
    else:
        state = _erased(state)
        fidelity = overlap_sq(state, _spec_target(spec))

    error_log = _total_error_log(outcomes)
    return GenerationReport(
        final_state=state,
        success_prob=success,
        error_prob_total=math.exp(error_log),
        error_prob_total_log=error_log,
        per_stage=tuple(outcomes),
        fidelity_vs_target=fidelity,
        failed_stage=failed_stage,
    )


def _total_error_log(outcomes) -> float:
    """Natural log of the total error probability 1 - prod(1 - P_E,i).

    Summed in log space as sum_i P_E,i prod_{j<i} (1 - P_E,j), the chance
    that stage i is the first to fail silently: the direct form cancels,
    and it reads 0 once the stage probabilities underflow.
    """
    logs = []
    ok_log = 0.0  # log of the chance that no earlier stage failed silently
    for outcome in outcomes:
        logs.append(outcome.error_prob_log + ok_log)
        p = outcome.error_prob
        ok_log += math.log1p(-p) if p < 1.0 else -math.inf
    return _logaddexp_reduce(logs)
