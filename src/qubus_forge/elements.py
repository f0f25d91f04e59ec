"""Unitary optical elements.

Cross-phase (XPM) imprinting on a qubus beam, qubus phase rotation, the
50:50 beam splitter, single-photon polarization rotations, polarizing
beam-splitter routing, and the n-mode Fourier interferometer.  Every
operation is pure, returns a new state and preserves the squared norm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .state import (
    POL_H,
    POL_V,
    HybridState,
    _state,
    _term,
    canonicalize,
)

_SQRT2 = math.sqrt(2.0)
_UNITARY_TOL = 1e-12


def _finite_beam(q: complex) -> complex:
    """``q``, once it is known to be a finite beam amplitude."""
    if not cmath.isfinite(q):
        raise ValueError("qubus amplitudes must be finite")
    return q


@dataclass(frozen=True)
class PhaseMap:
    """Phase imprinted on one qubus beam by a single XPM pass.

    Entries are dimensionless multiples of the unit phase ``theta`` passed to
    :func:`apply_xpm`, so one coupling strength scales the whole map.  A party
    term with label j holds n-1-j photons in its upper (horizontal) rail and
    contributes ``(n-1-j) * per_upper_photon``; a term whose single photon
    occupies spatial mode s contributes ``spatial_phase[s]``.
    """

    per_upper_photon: float
    spatial_phase: tuple[float, ...]
    target_beam: int

    def __post_init__(self):
        object.__setattr__(
            self, "spatial_phase", tuple(float(p) for p in self.spatial_phase)
        )
        if not math.isfinite(self.per_upper_photon):
            raise ValueError("per_upper_photon must be finite")
        if any(not math.isfinite(p) for p in self.spatial_phase):
            raise ValueError("spatial phases must be finite")
        if self.target_beam < 0:
            raise ValueError("target beam must be >= 0")

    @classmethod
    def stage(cls, n: int, shift: int = 0, target_beam: int = 1) -> "PhaseMap":
        """Map of one entangling stage: one unit per upper-rail photon and
        ((s + shift) mod n) units for spatial mode s."""
        return cls(1.0, tuple(float((s + shift) % n) for s in range(n)), target_beam)


def apply_xpm(
    state: HybridState,
    party: int | None,
    phase_map: PhaseMap,
    theta: float,
) -> HybridState:
    """Imprint XPM phases on one qubus beam.

    For every term, the target beam amplitude is rotated by
    ``exp(i * theta * (upper_photons * per_upper_photon + spatial_phase[s]))``
    where ``upper_photons = dim - 1 - j`` for the given party's label j.
    Pass ``party=None`` when only the spatial register couples.  Amplitudes,
    labels and beam magnitudes are untouched.
    """
    layout = state.layout
    if not 0 <= phase_map.target_beam < layout.qubus_count:
        raise ValueError(f"beam index {phase_map.target_beam} out of range")
    if party is not None:
        layout.party_slot(party)
    if layout.has_ancilla and len(phase_map.spatial_phase) != layout.ancilla_modes:
        raise ValueError(
            f"phase map has {len(phase_map.spatial_phase)} spatial entries, "
            f"layout declares {layout.ancilla_modes} modes"
        )
    if not math.isfinite(theta):  # it would make every rotated beam non-finite
        raise ValueError("qubus amplitudes must be finite")
    beam = phase_map.target_beam
    new_terms = []
    for t in state.terms:
        units = 0.0
        if party is not None:
            dim = layout.party_dims[party]
            units += (dim - 1 - t.labels[layout.party_slot(party)]) \
                * phase_map.per_upper_photon
        if layout.has_ancilla:
            units += phase_map.spatial_phase[t.labels[layout.ancilla_slot]]
        rot = cmath.exp(1j * theta * units)
        qubus = list(t.qubus)
        qubus[beam] = _finite_beam(qubus[beam] * rot)
        new_terms.append(_term(t.amp, t.labels, tuple(qubus)))
    return _state(layout, tuple(new_terms))


def apply_qubus_phase(state: HybridState, beam: int, phi: float) -> HybridState:
    """Rotate one qubus beam in phase space: alpha -> alpha e^{i phi}."""
    if not 0 <= beam < state.layout.qubus_count:
        raise ValueError(f"beam index {beam} out of range")
    if not math.isfinite(phi):  # it would make every rotated beam non-finite
        raise ValueError("qubus amplitudes must be finite")
    rot = cmath.exp(1j * phi)
    new_terms = []
    for t in state.terms:
        qubus = list(t.qubus)
        qubus[beam] = _finite_beam(qubus[beam] * rot)
        new_terms.append(_term(t.amp, t.labels, tuple(qubus)))
    return _state(state.layout, tuple(new_terms))


def apply_bs_5050(state: HybridState, beams: tuple[int, int]) -> HybridState:
    """Interfere two qubus beams on a 50:50 beam splitter.

    Per term, (a, b) -> ((a - b)/sqrt(2), (a + b)/sqrt(2)); the total beam
    energy |a|^2 + |b|^2 is conserved identically.
    """
    b1, b2 = beams
    if b1 == b2:
        raise ValueError("beam splitter needs two distinct beams")
    for b in (b1, b2):
        if not 0 <= b < state.layout.qubus_count:
            raise ValueError(f"beam index {b} out of range")
    new_terms = []
    for t in state.terms:
        qubus = list(t.qubus)
        a, b = qubus[b1], qubus[b2]
        qubus[b1] = _finite_beam((a - b) / _SQRT2)
        qubus[b2] = _finite_beam((a + b) / _SQRT2)
        new_terms.append(_term(t.amp, t.labels, tuple(qubus)))
    return _state(state.layout, tuple(new_terms))


def prep_rotation(n: int, j: int) -> np.ndarray:
    """Polarization rotation of step j of the preparation cascade.

    Sends |H> to sqrt((n-j-1)/(n-j)) |H> + (1/sqrt(n-j)) |V>, i.e. peels a
    1/(n-j) share of the remaining work-mode weight into V.
    """
    remaining = n - j
    if remaining < 1:
        raise ValueError(f"cascade step {j} out of range for dimension {n}")
    c = math.sqrt((remaining - 1) / remaining)
    s = math.sqrt(1.0 / remaining)
    return np.array([[c, -s], [s, c]], dtype=complex)


def pol_flip() -> np.ndarray:
    """Polarization flip (sigma_x): swaps H and V."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def apply_su2(state: HybridState, u) -> HybridState:
    """Apply a 2x2 unitary to the polarization of the photon in the work mode.

    Terms whose preparation photon sits in any other spatial mode are left
    alone.  Column convention: |H> -> u[0,0] |H> + u[1,0] |V>.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary")
    layout = state.layout
    if not layout.has_prep:
        raise ValueError("layout has no preparation register")
    # NaN passes the unitarity test (NaN > tol is false); an entry that is not
    # finite would make the amplitudes it multiplies non-finite.
    if not np.isfinite(u).all():
        raise ValueError("term amplitude must be finite")
    work = layout.work_mode
    sp_slot = layout.prep_spatial_slot
    pol_slot = layout.prep_pol_slot
    new_terms = []
    for t in state.terms:
        if t.labels[sp_slot] != work:
            new_terms.append(t)
            continue
        pol = t.labels[pol_slot]
        for new_pol in (POL_H, POL_V):
            amp = u[new_pol, pol] * t.amp
            if amp != 0:
                labels = list(t.labels)
                labels[pol_slot] = new_pol
                new_terms.append(_term(complex(amp), tuple(labels), t.qubus))
    return canonicalize(_state(layout, tuple(new_terms)))


def apply_pbs(state: HybridState, from_mode: int, new_mode: int) -> HybridState:
    """Polarizing beam splitter on the preparation register.

    Vertically polarized terms in ``from_mode`` are reflected into
    ``new_mode``; horizontal terms pass through unchanged.
    """
    layout = state.layout
    if not layout.has_prep:
        raise ValueError("layout has no preparation register")
    for mode in (from_mode, new_mode):
        if not 0 <= mode < layout.prep_modes:
            raise ValueError(f"spatial mode {mode} out of range")
    sp_slot = layout.prep_spatial_slot
    pol_slot = layout.prep_pol_slot
    new_terms = []
    for t in state.terms:
        if t.labels[sp_slot] == from_mode and t.labels[pol_slot] == POL_V:
            labels = list(t.labels)
            labels[sp_slot] = new_mode
            new_terms.append(_term(t.amp, tuple(labels), t.qubus))
        else:
            new_terms.append(t)
    return canonicalize(_state(layout, tuple(new_terms)))


def apply_fourier_lomi(state: HybridState) -> HybridState:
    """n-mode Fourier transform on the single-photon spatial register.

    Mode j maps to (1/sqrt(n)) sum_k exp(2 pi i j k / n) |k>; all other
    labels and the qubus beams are untouched.
    """
    layout = state.layout
    if not layout.has_ancilla:
        raise ValueError("layout has no single-photon spatial register")
    n = layout.ancilla_modes
    slot = layout.ancilla_slot
    scale = 1.0 / math.sqrt(n)
    new_terms = []
    for t in state.terms:
        j = t.labels[slot]
        for k in range(n):
            amp = t.amp * scale * cmath.exp(2j * math.pi * j * k / n)
            labels = list(t.labels)
            labels[slot] = k
            new_terms.append(_term(amp, tuple(labels), t.qubus))
    return canonicalize(_state(layout, tuple(new_terms)))
