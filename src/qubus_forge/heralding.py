"""Detector models, vacuum heralding, and ancilla erasure with feedforward.

Heralding is deterministic: no sampling happens anywhere.  All measurement
branches are enumerated exactly and reported with their probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .state import (
    NORM_TOL,
    HybridState,
    Term,
    _beam_key,
    _inner,
    _merge_groups,
    _state,
    _term,
    canonicalize,
    overlap_sq,
    qubus_close,
)

_LN10 = math.log(10.0)


class FeedforwardError(RuntimeError):
    """Feedforward corrections failed to collapse the simulated detection
    outcomes onto a single state; signals a protocol-construction bug."""


@dataclass(frozen=True)
class DetectorModel:
    """On/off photon detector with quantum efficiency eta.

    eta = 1 is the ideal photon-number non-resolving detector.  The detector
    stays silent on a coherent amplitude beta with probability
    exp(-eta |beta|^2).  Dark counts are not modeled.
    """

    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in [0, 1]")

    @classmethod
    def ideal_pnnd(cls) -> "DetectorModel":
        return cls(1.0)

    @classmethod
    def on_off(cls, efficiency: float) -> "DetectorModel":
        return cls(float(efficiency))

    def no_click_log(self, beam_amp: complex) -> float:
        """Natural log of the silence probability on amplitude beam_amp."""
        beam_amp = complex(beam_amp)
        return -self.efficiency * (
            beam_amp.real * beam_amp.real + beam_amp.imag * beam_amp.imag
        )


@dataclass(frozen=True)
class BranchRecord:
    """One distinct beam-amplitude class seen by the herald detector."""

    beam_amp: complex
    weight: float
    no_click_log: float

    @property
    def no_click(self) -> float:
        return math.exp(self.no_click_log)

    def to_dict(self) -> dict:
        return {
            "beam_amp": [self.beam_amp.real, self.beam_amp.imag],
            "weight": self.weight,
            "no_click": self.no_click,
            "no_click_log10": self.no_click_log / _LN10,
        }


@dataclass(frozen=True)
class HeraldOutcome:
    """Result of heralding on detector silence.

    ``heralded_state`` is the renormalized vacuum branch with the consumed
    beam removed (empty when no vacuum branch exists, in which case
    ``success_prob`` is 0).  ``error_prob_log`` is the natural log of
    ``error_prob`` and stays meaningful when the probability underflows;
    it is -inf when every branch heralds correctly.
    """

    heralded_state: HybridState
    success_prob: float
    error_prob: float
    error_prob_log: float
    branch_table: tuple[BranchRecord, ...]

    def __post_init__(self):
        # The herald accepts states normalized to NORM_TOL, so a branch
        # weight may exceed 1 by as much.
        if not -NORM_TOL <= self.success_prob <= 1.0 + NORM_TOL:
            raise ValueError("success probability out of [0, 1]")
        if self.error_prob > 1.0 - self.success_prob + NORM_TOL:
            raise ValueError("error probability exceeds failure weight")


class _BranchClasses(NamedTuple):
    """The detector-independent half of a vacuum herald.

    ``branches`` holds one (representative beam, weight, is vacuum) entry
    per beam-amplitude class, in class order; the herald's success weight
    and renormalized vacuum state depend on no detector either.
    """

    heralded_state: HybridState
    success_prob: float
    branches: tuple[tuple[complex, float, bool], ...]


def herald_vacuum(
    state: HybridState, beam: int, det: DetectorModel
) -> HeraldOutcome:
    """Condition on detector silence for one qubus beam.

    The branch whose beam amplitude is vacuum (within merge tolerance) is
    kept, renormalized, and returned with the consumed beam removed from the
    qubus list.  ``success_prob`` is that branch's weight.  ``error_prob``
    is the total silent-failure probability: the chance the detector stays
    dark although the state sits in a non-vacuum branch, summed as
    weight * exp(-eta |beta|^2) over those branches.
    """
    return _score_branches(_classify_branches(state, beam), det)


def _classify_branches(state: HybridState, beam: int) -> _BranchClasses:
    """Group the terms of a normalized state into classes of equal
    ``beam`` amplitude and herald the vacuum class, for any detector."""
    if not 0 <= beam < state.layout.qubus_count:
        raise ValueError(f"beam index {beam} out of range")
    if not state.terms:
        raise ValueError("empty state")
    s = canonicalize(state)
    if abs(_inner(s.terms, s.terms).real - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized before heralding")

    vacuum_terms: list[Term] = []
    success = 0.0
    branches = []
    # A class weight sums its members in canonical order; its representative
    # (the reported beam_amp) is its first member in rounded-beam order.
    for g in _merge_groups([(t.qubus[beam],) for t in s.terms]):
        rep = s.terms[g[0]].qubus[beam]
        members = [s.terms[i] for i in sorted(g)]
        weight = _inner(members, members).real
        vacuum = qubus_close(rep, 0.0)
        branches.append((rep, weight, vacuum))
        if vacuum:
            vacuum_terms = [s.terms[i] for i in g]
            success = weight

    new_layout = s.layout.replace(qubus_count=s.layout.qubus_count - 1)
    if success > 0.0:
        scale = 1.0 / math.sqrt(success)
        heralded = _state(
            new_layout,
            tuple(
                _term(t.amp * scale, t.labels, t.qubus[:beam] + t.qubus[beam + 1 :])
                for t in vacuum_terms
            ),
        )
    else:
        heralded = _state(new_layout, ())
    return _BranchClasses(heralded, success, tuple(branches))


def _score_branches(classes: _BranchClasses, det: DetectorModel) -> HeraldOutcome:
    """Weigh each branch class by the chance that ``det`` stays dark on it."""
    records = []
    failure_logs = []
    for rep, weight, vacuum in classes.branches:
        no_click_log = det.no_click_log(rep)
        records.append(BranchRecord(rep, weight, no_click_log))
        if not vacuum and weight > 0.0:
            failure_logs.append(math.log(weight) + no_click_log)

    if failure_logs:
        error_log = float(np.logaddexp.reduce(failure_logs))
        error_prob = math.exp(error_log)
    else:
        error_log = float("-inf")
        error_prob = 0.0

    records.sort(key=lambda r: (-r.weight, _beam_key(r.beam_amp)))
    return HeraldOutcome(
        heralded_state=classes.heralded_state,
        success_prob=classes.success_prob,
        error_prob=error_prob,
        error_prob_log=error_log,
        branch_table=tuple(records),
    )


def feedforward_outcomes(
    state: HybridState, correction_party: int
) -> list[HybridState]:
    """Corrected, renormalized state for each simulated detection mode.

    For detection in spatial mode k0, every term is multiplied by
    exp(-2 pi i j k0 / n) with j the correction party's label, and the
    spatial register is removed.
    """
    layout = state.layout
    if not layout.has_ancilla:
        raise ValueError("layout has no single-photon spatial register")
    party_slot = layout.party_slot(correction_party)
    n = layout.ancilla_modes
    slot = layout.ancilla_slot
    new_layout = layout.replace(ancilla_modes=0)
    by_outcome: list[list[Term]] = [[] for _ in range(n)]
    for t in state.terms:
        by_outcome[t.labels[slot]].append(t)
    outcomes = []
    for k0, detected in enumerate(by_outcome):
        picked = []
        for t in detected:
            j = t.labels[party_slot]
            amp = t.amp * cmath.exp(-2j * math.pi * j * k0 / n)
            picked.append(_term(amp, t.labels[:slot] + t.labels[slot + 1 :], t.qubus))
        out = canonicalize(_state(new_layout, tuple(picked)))
        if not out.terms:
            raise FeedforwardError(
                f"feedforward failed: detection outcome {k0} is unreachable"
            )
        scale = 1.0 / math.sqrt(_inner(out.terms, out.terms).real)
        outcomes.append(_state(new_layout, tuple(
            _term(t.amp * scale, t.labels, t.qubus) for t in out.terms
        )))
    return outcomes


def measure_ancilla_and_feedforward(
    state: HybridState, correction_party: int
) -> HybridState:
    """Erase the single-photon spatial register by measurement + feedforward.

    The register must already be Fourier-transformed.  Every detection
    outcome then yields the same corrected state up to a global phase; the
    erasure is deterministic and costs no success probability.  Raises
    :class:`FeedforwardError` when the outcomes disagree beyond fidelity
    1 - 1e-10, which signals a mis-built circuit.
    """
    outcomes = feedforward_outcomes(state, correction_party)
    ref = outcomes[0]
    for other in outcomes[1:]:
        if abs(overlap_sq(ref, other) - 1.0) > 1e-10:
            raise FeedforwardError("feedforward failed: outcomes disagree")
    return ref
