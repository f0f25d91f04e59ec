"""Detector models, vacuum heralding, and ancilla erasure with feedforward.

Heralding is deterministic: no sampling happens anywhere.  All measurement
branches are enumerated exactly and reported with their probabilities.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .state import (
    MERGE_TOL,
    NORM_TOL,
    HybridState,
    _abs_sq,
    _check_beam,
    _decoded,
    _derive,
    _inner,
    _logaddexp_reduce,
    _merge_groups,
    _number,
    _taker,
    _without_beam,
    canonicalize,
)

_LN10 = math.log(10.0)

# Two feedforward outcomes count as one state when their fidelity is within
# this of 1.  Outcomes of a correct circuit agree to rounding: the worst
# |F - 1| is 8.9e-16 over 154 generate runs (the report-digest specs and
# n = 16-64).  A correction phase off by delta on half the weight costs
# sin^2(delta / 2), so 1e-10 flags any delta above 2e-5 rad, far below the
# 2 pi / n step of a correction at every n <= N_MAX (6e-3 at n = 1024).
FEEDFORWARD_TOL = 1e-10


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
        object.__setattr__(self, "efficiency", _number(float, self.efficiency, "efficiency"))
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in [0, 1]")

    @classmethod
    def on_off(cls, efficiency: float) -> "DetectorModel":
        return cls(efficiency)


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

    ``state`` is the canonical state, ``class_of`` the class number of each
    of its terms and ``vacuum`` the number of the vacuum class (None when
    no class is vacuum), whose weight is ``success_prob``; ``vacuum_split``
    says whether that class holds two or more distinct beam values (one
    value under two codes is one value).
    ``branches`` holds one (representative beam, weight, |beam|^2) entry per
    beam-amplitude class, in class order; ``failures`` holds (log weight,
    |beam|^2) of each failure class of positive weight, in the same order.
    """

    state: HybridState
    class_of: list[int]
    vacuum: int | None
    vacuum_split: bool
    success_prob: float
    branches: tuple[tuple[complex, float, float], ...]
    failures: tuple[tuple[float, float], ...]


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

    The heralded state is built in one derivation of the canonical state:
    its vacuum-class rows, each amplitude scaled by 1/sqrt(success_prob),
    without the consumed beam.  The rows come in index order; when the
    vacuum class holds two or more distinct beam values, the merge rule
    over those rows' decoded values alone puts them back in its member
    order, which restricted to one group's members is the same.
    """
    classes = _classify_branches(state, beam)
    success = classes.success_prob
    canonical = classes.state
    if success > 0.0:
        vacuum = classes.vacuum
        rows = [i for i, k in enumerate(classes.class_of) if k == vacuum]
        if classes.vacuum_split:
            rows = _merge_groups((_decoded(canonical._beams[beam]),), rows)[0]
        scale = 1.0 / math.sqrt(success)
        amps = canonical.amps
        heralded = _without_beam(canonical, beam, rows, tuple([amps[i] * scale for i in rows]))
    else:
        heralded = _without_beam(canonical, beam, ())
    eta = det.efficiency
    error_log, error_prob = _failure_log(classes, eta)
    # log silence probability -eta |beam|^2, from each class's |beam|^2
    records = [BranchRecord(rep, w, -eta * e2) for rep, w, e2 in classes.branches]
    # The classes come in rounded-beam order, so a stable sort on the weight
    # alone orders equal weights by rounded beam.
    records.sort(key=lambda r: -r.weight)
    return HeraldOutcome(
        heralded_state=heralded,
        success_prob=success,
        error_prob=error_prob,
        error_prob_log=error_log,
        branch_table=tuple(records),
    )


def _classify_branches(state: HybridState, beam: int) -> _BranchClasses:
    """Group the terms of a normalized state into classes of equal
    ``beam`` amplitude and find the vacuum class, for any detector.

    A protocol state's herald column holds at most 2n - 1 distinct values
    among its n^2 terms, so the merge rule runs over the values of the
    column's distinct codes, in order of first appearance (``dict.fromkeys``
    over ints).  Over the whole column the rule would visit equal values in
    index order, and a repeat would join the group of the first, so the
    classes are the same; that holds too for one value under two codes,
    such as 0j and -0j, the first its group's representative.  Each code
    takes its class from a list, and each term its code's class through one
    list lookup in C.  The class weights come from one
    class-weighted :func:`state._inner` pass, which skips its
    repeated-label check when :func:`canonicalize` returned the state as it
    is.  Only :func:`herald_vacuum` reads the vacuum class's rows, so it
    picks them itself.
    """
    _check_beam(state, beam)
    if not state.amps:
        raise ValueError("empty state")
    s = canonicalize(state)
    codes, table = s._beams[beam]
    used = list(dict.fromkeys(codes))  # the codes terms hold, in order of first appearance
    values = list(map(table.__getitem__, used))
    groups = _merge_groups((values,), range(len(values)))
    class_of_code = [0] * len(table)
    for k, g in enumerate(groups):
        for p in g:
            class_of_code[used[p]] = k
    class_of = list(map(class_of_code.__getitem__, codes))
    norm_sq, weights = _inner(s, s, classes=class_of, distinct=s is state)
    if abs(norm_sq.real - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized before heralding")

    vacuum = None
    success = 0.0
    branches = []
    failures = []
    # A class weight sums its members in canonical order; its representative
    # (the reported beam_amp) is its first member in rounded-beam order.
    for k, (g, weight) in enumerate(zip(groups, weights)):
        rep = values[g[0]]
        weight = weight.real
        e2 = rep.real * rep.real + rep.imag * rep.imag
        branches.append((rep, weight, e2))
        size = abs(rep)
        if size <= MERGE_TOL * max(1.0, size):  # qubus_close(rep, 0.0)
            vacuum = k
            success = weight
        elif weight > 0.0:
            failures.append((math.log(weight), e2))
    # The herald accepts states normalized to NORM_TOL, so a branch weight
    # may exceed 1 by as much.
    if not -NORM_TOL <= success <= 1.0 + NORM_TOL:
        raise ValueError("success probability out of [0, 1]")
    # a set holds equal values, 0j and -0j among them, once
    split = (
        vacuum is not None
        and len(groups[vacuum]) > 1
        and len({values[p] for p in groups[vacuum]}) > 1
    )
    return _BranchClasses(s, class_of, vacuum, split, success, tuple(branches), tuple(failures))


def _failure_log(classes: _BranchClasses, eta: float) -> tuple[float, float]:
    """Silent-failure probability at detector efficiency eta, as (natural
    log, value): each failure class's weight times exp(-eta |beam|^2),
    summed in log space.  The log is -inf when there is no failure class."""
    if not classes.failures:
        return float("-inf"), 0.0
    error_log = _logaddexp_reduce([lw + -eta * e2 for lw, e2 in classes.failures])
    error_prob = math.exp(error_log)
    if error_prob > 1.0 - classes.success_prob + NORM_TOL:
        raise ValueError("error probability exceeds failure weight")
    return error_log, error_prob


@functools.lru_cache(maxsize=256)
def _correction_row(n: int, j: int) -> tuple[complex, ...]:
    """The feedforward phases exp(-2 pi i j k0 / n) of party label j, for
    k0 < n; j reaches past n when the party's dimension does.

    Kept in a bounded memo of 256 rows, under 11 MB at n <= N_MAX, like the
    Fourier rows of :func:`elements._fourier_row`.
    """
    return tuple([cmath.exp(-2j * math.pi * j * k0 / n) for k0 in range(n)])


def feedforward_outcomes(
    state: HybridState, correction_party: int
) -> list[HybridState]:
    """Corrected, renormalized state for each simulated detection mode.

    For detection in spatial mode k0, every term is multiplied by
    exp(-2 pi i j k0 / n) with j the correction party's label, and the
    spatial register is removed.

    All outcomes are built in one pass: every term gets the correction of
    its own spatial label k0 (the phases of party label j are one row of
    the memo of :func:`_correction_row`, looked up once per label value the
    correction party holds), the corrected state is canonicalized once, one
    class-weighted :func:`state._inner` pass, classed by k0, gives every
    outcome's squared norm, and each outcome's rows are cut out, scaled and
    stripped of the spatial label.  The canonical order sorts the spatial
    label with the rest, so restricted to one k0 it is that outcome's own
    canonical order, with the same merge runs; and each class sum is bit for
    bit that outcome's own norm.  The results equal those of one
    canonicalize and one norm per outcome.

    The passes over every term run in C: the party and spatial label
    columns are read as they are, each term's phase and corrected
    amplitude come through ``map``, and each outcome picks its rows of
    every label column but the spatial one, which is dropped.  When
    :func:`canonicalize` returns the corrected state as it is, its labels
    strictly increase, so the norm pass skips its repeated-label check.

    Errors come in this order: a corrected amplitude or a merged sum that
    is not finite (ValueError, for any outcome), then the first unreachable
    outcome in k0 order (:class:`FeedforwardError`).  An outcome is
    unreachable when it holds no term or its squared norm is not positive:
    terms that cancel on beams just beyond :data:`state.MERGE_TOL` of each
    other are kept apart and can sum to a norm of 0.0.
    """
    layout = state.layout
    slot = layout.ancilla_slot
    party_slot = layout.party_slot(correction_party)
    n = layout.ancilla_modes
    js, k0s = state._labels[party_slot], state._labels[slot]
    # one row per label value the state holds, whatever the party's dimension
    phases = {j: _correction_row(n, j) for j in set(js)}
    corrections = map(operator.getitem, map(phases.__getitem__, js), k0s)
    derived = _derive(state, amps=tuple(map(operator.mul, state.amps, corrections)))
    corrected = canonicalize(derived)
    proven = corrected is derived
    all_amps, columns = corrected._amps, corrected._labels
    if not proven:
        k0s = columns[slot]
    by_outcome: list[list[int]] = [[] for _ in range(n)]
    for i, k0 in enumerate(k0s):
        by_outcome[k0].append(i)
    _, norms = _inner(corrected, corrected, classes=k0s, distinct=proven)
    # an outcome past the last reached one has no class sum: its norm is 0
    norms += [0j] * (n - len(norms))
    for k0, norm_sq in enumerate(norms):
        # an empty outcome, or one whose terms cancel to a norm of 0 or less
        if not norm_sq.real > 0.0:
            raise FeedforwardError(
                f"feedforward failed: detection outcome {k0} is unreachable"
            )
    new_layout = layout.replace(ancilla_modes=0)
    stripped = columns[:slot] + columns[slot + 1 :]  # every label column but the spatial one
    outcomes = []
    for rows, norm_sq in zip(by_outcome, norms):
        scale = 1.0 / math.sqrt(norm_sq.real)
        amps = tuple([all_amps[i] * scale for i in rows])
        labels = tuple(map(_taker(rows), stripped))
        outcomes.append(_derive(corrected, rows, new_layout, amps, labels))
    return outcomes


def measure_ancilla_and_feedforward(
    state: HybridState, correction_party: int
) -> HybridState:
    """Erase the single-photon spatial register by measurement + feedforward.

    The register must already be Fourier-transformed.  Every detection
    outcome then yields the same corrected state up to a global phase; the
    erasure is deterministic and costs no success probability.  Raises
    :class:`FeedforwardError` when the outcomes disagree beyond fidelity
    1 - :data:`FEEDFORWARD_TOL`, which signals a mis-built circuit.
    """
    outcomes = feedforward_outcomes(state, correction_party)
    ref = outcomes[0]
    for other in outcomes[1:]:
        # Two outcomes pair their terms by index only when neither holds a
        # beam, and canonicalize merges the equal labels of a beamless
        # state, so no outcome's labels repeat.  Both are normalized, so
        # this is their fidelity.
        if abs(_abs_sq(_inner(ref, other, distinct=True)) - 1.0) > FEEDFORWARD_TOL:
            raise FeedforwardError("feedforward failed: outcomes disagree")
    return ref
