"""End-to-end generation circuits.

Single-photon spatial-qudit preparation, the per-party entangling stage
(XPM coupling, displacement, beam-splitter interference, vacuum herald),
multi-party composition, and constructors for the maximally entangled
target states.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
from dataclasses import dataclass

from .elements import (
    PhaseMap,
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
    ALPHA_MAX,
    POL_H,
    POL_V,
    HybridState,
    RegisterLayout,
    Term,
    _state,
    _term,
    drop_uniform_beam,
    overlap_sq,
    qubus_close,
)


def balanced_coeffs(n: int) -> tuple[complex, ...]:
    """The flat unit vector (1, ..., 1)/sqrt(n)."""
    return phased_coeffs(n, 0)


def phased_coeffs(n: int, m: int) -> tuple[complex, ...]:
    """Balanced coefficients with the linear phase pattern tau^{j m},
    tau = exp(2 pi i / n)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    scale = 1.0 / math.sqrt(n)
    return tuple(scale * cmath.exp(2j * math.pi * j * m / n) for j in range(n))


def coeff_phase_index(coeffs, tol: float = 1e-9) -> int | None:
    """The integer m when coeffs ~ (global phase) * tau^{j m} / sqrt(n).

    Returns None when the vector is not balanced-with-linear-phases.
    """
    n = len(coeffs)
    scale = 1.0 / math.sqrt(n)
    if any(abs(abs(c) - scale) > tol for c in coeffs):
        return None
    if n == 1:
        return 0
    step = 2.0 * math.pi / n
    m = round(cmath.phase(coeffs[1] / coeffs[0]) / step) % n
    for j, c in enumerate(coeffs):
        expected = coeffs[0] * cmath.exp(1j * step * j * m)
        if abs(c - expected) > tol:
            return None
    return m


def _check_working_point(n: int, theta: float, alpha: complex) -> None:
    """Reject a dimension, XPM phase and beam amplitude at which the vacuum
    herald cannot tell success from failure."""
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if not (math.isfinite(theta) and cmath.isfinite(alpha)):
        raise ValueError("theta and alpha must be finite")
    # 2 (n - 1) theta is the largest phase a stage's XPM imprints.
    if not math.isfinite(2 * (n - 1) * abs(theta)):
        raise ValueError(
            f"theta = {theta!r} is too large: the XPM phase 2(n-1)|theta| overflows"
        )
    if abs(alpha) > ALPHA_MAX:
        raise ValueError(f"|alpha| must be <= {ALPHA_MAX:g}")
    # Offset d puts amplitude alpha (1 - e^{i d theta}) / sqrt(2) on the
    # herald beam; if that is vacuum, a failure branch is heralded too.
    for d in range(1, n):
        beam = alpha * (1 - cmath.exp(1j * d * theta)) / math.sqrt(2)
        if qubus_close(beam, 0.0):
            raise ValueError(
                f"theta = {theta!r} with alpha = {alpha!r} leaves the "
                f"offset-{d} failure branch at vacuum on the herald beam"
            )


def _check_shifts(shifts: tuple[int, ...], n: int, parties: int) -> None:
    """One shift per party, each in [0, n), the first one 0."""
    if len(shifts) != parties:
        raise ValueError("need one shift per party")
    if any(not 0 <= k < n for k in shifts):
        raise ValueError("shifts must lie in [0, n)")
    if shifts[0] != 0:
        raise ValueError("the first party's shift must be 0")


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
    detector: DetectorModel = DetectorModel.ideal_pnnd()

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(map(operator.index, self.shifts)))
        object.__setattr__(
            self, "coeffs", tuple(tuple(complex(c) for c in v) for v in self.coeffs)
        )
        object.__setattr__(self, "alpha", complex(self.alpha))
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
            if abs(norm - 1.0) > 1e-12:
                raise ValueError("coefficient vectors must have unit norm")

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
            detector=detector if detector is not None else DetectorModel.ideal_pnnd(),
        )


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of a full generation run.

    ``fidelity_vs_target`` is filled only when every coefficient vector is
    balanced-with-linear-phases, in which case the matching maximally
    entangled target is well defined.  ``failed_stage`` names the first
    stage whose herald had no vacuum branch, if any.
    """

    final_state: HybridState
    success_prob: float
    error_prob_total: float
    per_stage: tuple[HeraldOutcome, ...]
    fidelity_vs_target: float | None = None
    failed_stage: int | None = None


def prepare_single_photon_qudit(n: int) -> HybridState:
    """Balanced single-photon spatial qudit (1/sqrt(n)) sum_j |j>_s.

    Built by the physical cascade: a horizontally polarized photon passes a
    chain of polarization rotations and polarizing beam splitters that peel
    amplitude 1/sqrt(n) into each spatial mode, with a final polarization
    flip so every mode carries |V>.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    prep_layout = RegisterLayout(prep_modes=n + 1)
    work = prep_layout.work_mode
    state = HybridState(prep_layout, (Term(1.0, (work, POL_H)),))
    for j in range(n - 1):
        state = apply_su2(state, prep_rotation(n, j))
        state = apply_pbs(state, work, j)
    state = apply_su2(state, pol_flip())
    state = apply_pbs(state, work, n - 1)

    pol_slot = prep_layout.prep_pol_slot
    sp_slot = prep_layout.prep_spatial_slot
    terms = []
    for t in state.terms:
        if t.labels[pol_slot] != POL_V or t.labels[sp_slot] >= n:
            raise RuntimeError("preparation cascade left a stray component")
        terms.append(_term(t.amp, (t.labels[sp_slot],)))
    return _state(RegisterLayout(ancilla_modes=n), tuple(terms))


def _attach_party(state: HybridState, coeffs) -> HybridState:
    """Tensor a fresh party register sum_m coeffs[m] |m> onto the state."""
    dim = len(coeffs)
    layout = state.layout
    new_layout = layout.replace(party_dims=layout.party_dims + (dim,))
    cut = layout.num_parties
    terms = []
    for t in state.terms:
        for m, c in enumerate(coeffs):
            if c != 0:
                # complex(): a coefficient may be a numpy scalar
                amp = complex(t.amp * c)
                terms.append(_term(amp, t.labels[:cut] + (m,) + t.labels[cut:], t.qubus))
    return _state(new_layout, tuple(terms))


def _with_fresh_beams(state: HybridState, alpha: complex) -> HybridState:
    """Append a fresh (|alpha>, |alpha>) qubus pair."""
    layout = state.layout.replace(qubus_count=state.layout.qubus_count + 2)
    alpha = complex(alpha)
    return _state(layout, tuple(
        _term(t.amp, t.labels, t.qubus + (alpha, alpha)) for t in state.terms
    ))


def _pre_herald_state(
    state: HybridState, coeffs, shift: int, theta: float, alpha: complex
) -> tuple[HybridState, int]:
    """Everything of one entangling stage before its herald: attach a party,
    couple it and the spatial register to a fresh qubus pair, interfere.

    Returns the state and the index of the beam the herald detector reads.
    """
    n = state.layout.ancilla_modes
    if n == 0:
        raise ValueError("stage needs a single-photon spatial register")
    if len(coeffs) != n:
        raise ValueError("coefficient vector length must match the register size")
    st = _attach_party(state, coeffs)
    base = st.layout.qubus_count
    st = _with_fresh_beams(st, alpha)
    st = apply_xpm(
        st,
        party=st.layout.num_parties - 1,
        phase_map=PhaseMap.stage(n, shift, target_beam=base + 1),
        theta=theta,
    )
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
    st, beam = _pre_herald_state(state, coeffs, shift, theta, alpha)
    outcome = herald_vacuum(st, beam, detector)
    if outcome.success_prob > 0.0:
        # The surviving beam is |sqrt(2) alpha> in every term: a spectator.
        survivor = drop_uniform_beam(outcome.heralded_state, beam)
        outcome = dataclasses.replace(outcome, heralded_state=survivor)
    return outcome


def entangle_stage(
    state: HybridState, spec: ProtocolSpec, party: int
) -> HeraldOutcome:
    """Run the entangling stage of one party of ``spec`` on ``state``."""
    if not 0 <= party < spec.parties:
        raise ValueError(f"party index {party} out of range")
    return _run_stage(
        state,
        spec.coeffs[party],
        spec.shifts[party],
        spec.theta,
        spec.alpha,
        spec.detector,
    )


def target_state(n: int, m: int, k, parties: int = 2) -> HybridState:
    """Maximally entangled target (1/sqrt(n)) sum_j tau^{jm} (x)_i |(j+k_i) mod n>.

    ``k`` may be a single shift (applied to every party after the first,
    which carries shift 0) or an explicit per-party shift sequence starting
    with 0.  All shifts zero gives the symmetric family; tau = exp(2 pi i/n).
    """
    if not 0 <= m < n:
        raise ValueError("phase index m must lie in [0, n)")
    if isinstance(k, (list, tuple)):
        shifts = tuple(map(operator.index, k))
    else:
        shifts = (0,) + (operator.index(k),) * (parties - 1)
    _check_shifts(shifts, n, parties)
    layout = RegisterLayout(party_dims=(n,) * parties)
    terms = tuple(
        Term(c, tuple((j + s) % n for s in shifts))
        for j, c in enumerate(phased_coeffs(n, m))
    )
    return HybridState(layout, terms)


def generate(spec: ProtocolSpec) -> GenerationReport:
    """Run the full protocol: preparation, one entangling stage per party,
    Fourier erasure of the spatial register, feedforward.

    The overall success probability is the product of the per-stage herald
    probabilities; the total error probability is 1 - prod(1 - P_E,stage).
    """
    state = prepare_single_photon_qudit(spec.n)
    outcomes: list[HeraldOutcome] = []
    for party in range(spec.parties):
        outcome = entangle_stage(state, spec, party)
        outcomes.append(outcome)
        if outcome.success_prob <= 0.0:
            return GenerationReport(
                final_state=outcome.heralded_state,
                success_prob=0.0,
                error_prob_total=_total_error(outcomes),
                per_stage=tuple(outcomes),
                fidelity_vs_target=None,
                failed_stage=party,
            )
        state = outcome.heralded_state

    state = apply_fourier_lomi(state)
    final = measure_ancilla_and_feedforward(state, correction_party=0)

    success = 1.0
    for outcome in outcomes:
        success *= outcome.success_prob

    fidelity = None
    phase_indices = [coeff_phase_index(vec) for vec in spec.coeffs]
    if all(m is not None for m in phase_indices):
        m_total = sum(phase_indices) % spec.n
        target = target_state(spec.n, m_total, spec.shifts, spec.parties)
        fidelity = overlap_sq(final, target)

    return GenerationReport(
        final_state=final,
        success_prob=success,
        error_prob_total=_total_error(outcomes),
        per_stage=tuple(outcomes),
        fidelity_vs_target=fidelity,
    )


def _total_error(outcomes) -> float:
    ok = 1.0
    for outcome in outcomes:
        ok *= 1.0 - outcome.error_prob
    return 1.0 - ok
