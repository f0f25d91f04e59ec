import array
import cmath
import functools
import itertools
import math
import random
import sys
import types

import pytest

from qubus_forge.elements import _fourier_row, apply_fourier_lomi
from qubus_forge.heralding import (
    FEEDFORWARD_TOL,
    DetectorModel,
    FeedforwardError,
    _classify_branches,
    _correction_row,
    feedforward_outcomes,
    herald_vacuum,
    measure_ancilla_and_feedforward,
)
from qubus_forge import state as state_module
from qubus_forge.protocols import (
    ProtocolSpec,
    _attach_party,
    _run_stage,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.elements import apply_bs_5050, apply_qubus_phase, apply_xpm
from qubus_forge.state import (
    DROP_TOL,
    MERGE_TOL,
    N_MAX,
    HybridState,
    RegisterLayout,
    Term,
    _inner,
    _merge_groups,
    canonicalize,
    overlap_sq,
    qubus_close,
    state_norm_sq,
)

ALPHA = 500.0
THETA = 0.01


def _beam_key(q: complex) -> tuple[float, float]:
    """The merge rule's rounded key of one beam: its real and imaginary
    parts rounded to the 12 decimals of MERGE_TOL."""
    return (round(q.real, 12), round(q.imag, 12))


def qutrit_silent_failure_prob(alpha, theta, eta=1.0):
    """Literal transcription of the balanced-qutrit silent-failure formula."""
    return (4.0 / 9.0) * math.exp(-2.0 * eta * alpha**2 * math.sin(theta / 2.0) ** 2) \
        + (2.0 / 9.0) * math.exp(-2.0 * eta * alpha**2 * math.sin(theta) ** 2)


def stage_one_pre_herald(n=3, alpha=ALPHA, theta=THETA):
    """Balanced first-stage state just before the herald detector."""
    state = _attach_party(prepare_single_photon_qudit(n), phased_coeffs(n, 0), alpha)
    state = apply_xpm(state, 0, 0, 1, theta)
    state = apply_qubus_phase(state, 1, -(n - 1) * theta)
    return apply_bs_5050(state, (0, 1))


def test_detector_model_kinds():
    assert DetectorModel() == DetectorModel.on_off(1.0)
    with pytest.raises(ValueError):
        DetectorModel(1.5)
    with pytest.raises(ValueError):
        DetectorModel(-0.1)


def test_detector_no_click_probability():
    # each branch record holds the silence log -eta |beta|^2 of its class
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel(0.7))
    for record in outcome.branch_table:
        expected = -0.7 * abs(record.beam_amp) ** 2
        assert record.no_click_log == pytest.approx(expected, rel=1e-15, abs=1e-300)
    assert outcome.branch_table[0].no_click == 1.0  # the vacuum class


def test_herald_balanced_qutrit_stage():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel())
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    # exact branch structure: vacuum plus the four failure classes
    weights = sorted(round(b.weight, 9) for b in outcome.branch_table)
    assert weights == pytest.approx(
        sorted([1 / 3, 2 / 9, 2 / 9, 1 / 9, 1 / 9]), abs=1e-9
    )
    # heralded state keeps the party-register correlation and drops the beam
    st = outcome.heralded_state
    assert st.layout.qubus_count == 1
    assert sorted(t.labels for t in st.terms) == [(0, 0), (1, 1), (2, 2)]
    assert state_norm_sq(st) == pytest.approx(1.0, abs=1e-12)


def test_herald_error_matches_closed_form():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel())
    expected = qutrit_silent_failure_prob(ALPHA, THETA)
    assert outcome.error_prob == pytest.approx(expected, rel=1e-12)
    assert outcome.error_prob == pytest.approx(1.66e-6, rel=5e-3)
    # table entries reproduce the sum by hand
    acc = sum(
        b.weight * b.no_click
        for b in outcome.branch_table
        if abs(b.beam_amp) > 1e-9
    )
    assert acc == pytest.approx(outcome.error_prob, rel=1e-12)


def test_herald_with_finite_efficiency():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel(0.7))
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert outcome.error_prob == pytest.approx(qutrit_silent_failure_prob(ALPHA, THETA, 0.7),
                                               rel=1e-12)
    assert outcome.error_prob < 1e-4


def test_herald_all_vacuum_beam_succeeds_trivially():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout,
        (Term(1 / math.sqrt(2), (0,), (0.0,)), Term(1 / math.sqrt(2), (1,), (0.0,))),
    )
    outcome = herald_vacuum(state, 0, DetectorModel())
    assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
    assert outcome.error_prob == 0.0
    assert outcome.error_prob_log == float("-inf")


def test_herald_without_vacuum_branch_flags_failure():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout,
        (Term(1 / math.sqrt(2), (0,), (3.0,)), Term(1 / math.sqrt(2), (1,), (-3.0,))),
    )
    outcome = herald_vacuum(state, 0, DetectorModel())
    assert outcome.success_prob == 0.0
    assert outcome.heralded_state.terms == ()
    assert outcome.error_prob == pytest.approx(math.exp(-9.0), rel=1e-12)


def test_herald_success_plus_failure_weights_is_one():
    for n in (2, 3, 5):
        outcome = herald_vacuum(
            stage_one_pre_herald(n), 0, DetectorModel()
        )
        total = sum(b.weight for b in outcome.branch_table)
        assert total == pytest.approx(1.0, abs=1e-9)
        nonvac = sum(b.weight for b in outcome.branch_table if abs(b.beam_amp) > 1e-9)
        assert outcome.success_prob + nonvac == pytest.approx(1.0, abs=1e-9)


def test_herald_error_monotone_in_alpha_and_eta():
    pre = {a: stage_one_pre_herald(alpha=a) for a in (1.0, 5.0, 20.0, 100.0)}
    for eta in (0.3, 0.7, 1.0):
        errs = [
            herald_vacuum(pre[a], 0, DetectorModel(eta)).error_prob
            for a in (1.0, 5.0, 20.0, 100.0)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(errs, errs[1:]))
    for alpha in (1.0, 20.0):
        errs = [
            herald_vacuum(pre[alpha], 0, DetectorModel(eta)).error_prob
            for eta in (0.2, 0.5, 0.8, 1.0)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(errs, errs[1:]))


def test_pre_herald_state_norm_agrees_across_modes():
    # the five branch weights sum to one; coherent cross terms between the
    # branches are suppressed below 1e-8 once |alpha|^2 sin^2(theta/2) >> 1,
    # and here they vanish identically because every branch carries distinct
    # register labels
    state = stage_one_pre_herald()
    assert 1 / 3 + 2 / 9 + 2 / 9 + 1 / 9 + 1 / 9 == pytest.approx(1.0, abs=1e-15)
    gram = state_norm_sq(state)
    diagonal = sum(abs(t.amp) ** 2 for t in canonicalize(state).terms)
    assert gram == pytest.approx(1.0, abs=1e-9)
    assert abs(gram - diagonal) < 1e-8


def test_herald_degenerate_dark_bus():
    # at alpha = 0 the qubus never lights up: every branch collapses into the
    # vacuum class, the detector is silent with certainty, and no filtering
    # happens (success 1, nothing flagged as error).  The closed-form stage
    # error (n-1)/n describes this same point as total silent failure.
    outcome = herald_vacuum(
        stage_one_pre_herald(alpha=0.0), 0, DetectorModel()
    )
    assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
    assert outcome.error_prob == 0.0
    assert len(outcome.branch_table) == 1
    # the unfiltered state still holds all nine label branches
    assert len(outcome.heralded_state.terms) == 9


def test_herald_requires_normalized_state():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(layout, (Term(0.5, (0,), (0.0,)),))
    with pytest.raises(ValueError, match="normalized"):
        herald_vacuum(state, 0, DetectorModel())
    with pytest.raises(ValueError, match="beam index"):
        herald_vacuum(state, 3, DetectorModel())
    with pytest.raises(ValueError, match="empty state"):
        herald_vacuum(HybridState(layout, ()), 0, DetectorModel())
    # the check allows |norm - 1| up to 1e-9; the excess sits on a failure
    # branch so the vacuum weight stays a valid probability
    for excess, accepted in ((0.5e-9, True), (2e-9, False)):
        state = HybridState(
            layout,
            (
                Term(math.sqrt(0.5), (0,), (0.0,)),
                Term(math.sqrt(0.5 + excess), (1,), (3.0,)),
            ),
        )
        if accepted:
            outcome = herald_vacuum(state, 0, DetectorModel())
            assert outcome.success_prob == pytest.approx(0.5, abs=1e-15)
        else:
            with pytest.raises(ValueError, match="normalized"):
                herald_vacuum(state, 0, DetectorModel())
    # with the excess on the vacuum branch, the outcome accepts the success
    # probability the norm check let through
    for excess, accepted in ((0.5e-9, True), (2e-9, False)):
        state = HybridState(layout, (Term(math.sqrt(1.0 + excess), (0,), (0.0,)),))
        if accepted:
            outcome = herald_vacuum(state, 0, DetectorModel())
            assert outcome.success_prob == state_norm_sq(state)
        else:
            with pytest.raises(ValueError, match="normalized"):
                herald_vacuum(state, 0, DetectorModel())


def test_class_weights_and_norm_come_from_one_pass():
    # Terms with equal labels in different herald classes interfere in the
    # norm through their cross pair, which belongs to neither class weight;
    # each weight must be bit for bit the <s|s> of its class's terms alone
    # (summed in canonical order), and the norm that of the whole state.
    layout = RegisterLayout(party_dims=(2,), qubus_count=2)
    raw = HybridState(
        layout,
        (
            Term(0.5 + 0.1j, (0,), (0.3, 0j)),
            Term(0.4 - 0.2j, (0,), (0.3, 0.6)),  # label (0,), another class
            Term(-0.3 + 0.3j, (0,), (0.7, 0j)),  # label (0,), the vacuum class
            Term(0.2j, (1,), (0.2j, 0j)),
            Term(0.35, (1,), (0.1, 0.6 + 1e-13)),  # within MERGE_TOL of 0.6
            Term(-0.25 + 0.1j, (1,), (0.0, -0.4j)),
        ),
    )
    scale = 1.0 / math.sqrt(state_norm_sq(raw))
    state = HybridState(
        raw.layout, [Term(t.amp * scale, t.labels, t.qubus) for t in raw.terms]
    )
    s = canonicalize(state)
    col = s.beams[1]
    groups = _merge_groups((col,), range(len(col)))
    assert len(groups) == 3
    class_of = [0] * len(col)
    for k, g in enumerate(groups):
        for i in g:
            class_of[i] = k
    norm, sums = _inner(s, s, classes=class_of)
    assert (norm.real.hex(), norm.imag.hex()) == (_inner(s, s).real.hex(), _inner(s, s).imag.hex())
    # the cross pairs between classes are a visible part of the norm
    assert abs(norm.real - sum(w.real for w in sums)) > 0.05
    outcome = herald_vacuum(state, 1, DetectorModel())
    table = {r.beam_amp: r for r in outcome.branch_table}
    classes = _classify_branches(state, 1)
    for g, total in zip(groups, sums):
        alone = HybridState(layout, [s.terms[i] for i in sorted(g)])
        expected = _inner(alone, alone)
        assert (total.real.hex(), total.imag.hex()) == (expected.real.hex(), expected.imag.hex())
        assert table[col[g[0]]].weight.hex() == expected.real.hex()
    assert classes.success_prob.hex() == table[0j].weight.hex()
    assert [w for _, w, _ in classes.branches] == [w.real for w in sums]


def test_branch_table_merge_tolerance_edge():
    # herald beams closer than MERGE_TOL are one branch class (here the
    # vacuum class); beams 1.1 tolerances apart are two
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    amp = math.sqrt(0.5)
    for beam, records in ((0.9e-12, 1), (1.1e-12, 2)):
        state = HybridState(layout, (Term(amp, (0,), (0.0,)), Term(amp, (1,), (beam,))))
        outcome = herald_vacuum(state, 0, DetectorModel())
        assert len(outcome.branch_table) == records
        assert outcome.success_prob == pytest.approx(1.0 / records, abs=1e-15)
    # on a bright herald beam the tolerance is relative: MERGE_TOL * 500
    for factor, records in ((0.9, 1), (1.1, 2)):
        beam = 500.0 + factor * MERGE_TOL * 500.0
        state = HybridState(layout, (Term(amp, (0,), (500.0,)), Term(amp, (1,), (beam,))))
        outcome = herald_vacuum(state, 0, DetectorModel())
        assert len(outcome.branch_table) == records
        assert [r.beam_amp for r in outcome.branch_table][0] == 500.0
        assert outcome.success_prob == 0.0


def test_branch_table_orders_equal_weights_by_rounded_beam():
    # The terms list their herald beams in reverse rounded-beam order, four
    # classes of one weight and two of another.  The table is the one the
    # key (-weight, rounded beam) sorts: equal weights in rounded-beam order.
    layout = RegisterLayout(party_dims=(6,), qubus_count=1)
    beams = (3.0 + 1.0j, 3.0 - 1.0j, 2.0, 0.5j, 0.0, -1.0)
    amps = (0.5, math.sqrt(0.125), 0.5, math.sqrt(0.125), math.sqrt(0.125),
            math.sqrt(0.125))
    state = HybridState(
        layout, [Term(a, (j,), (b,)) for j, (a, b) in enumerate(zip(amps, beams))]
    )
    outcome = herald_vacuum(state, 0, DetectorModel(0.7))
    table = outcome.branch_table
    assert table == tuple(sorted(table, key=lambda r: (-r.weight, _beam_key(r.beam_amp))))
    assert [r.beam_amp for r in table] == [2.0, 3.0 + 1.0j, -1.0, 0.0, 0.5j, 3.0 - 1.0j]


def classify_per_term(state, beam):
    """Reference: the merge rule over every term of the canonical herald
    column, each term's class set from its group in a loop, and the
    last class within MERGE_TOL of vacuum as the vacuum class, its rows in
    the group's member order.  Returns (canonical state, class of each term,
    vacuum class, whether it holds two or more distinct beam values,
    success, branches, failures) as ``_classify_branches`` holds them, and
    the vacuum rows that ``herald_vacuum`` keeps."""
    s = canonicalize(state)
    col = s.beams[beam]
    groups = _merge_groups((col,), range(len(col)))
    class_of = [0] * len(col)
    for k, g in enumerate(groups):
        for i in g:
            class_of[i] = k
    _, weights = _inner(s, s, classes=class_of)
    vacuum, rows, success, branches, failures = None, [], 0.0, [], []
    for k, (g, weight) in enumerate(zip(groups, weights)):
        rep = col[g[0]]
        e2 = rep.real * rep.real + rep.imag * rep.imag
        branches.append((rep, weight.real, e2))
        if qubus_close(rep, 0.0):
            vacuum, rows, success = k, g, weight.real
        elif weight.real > 0.0:
            failures.append((math.log(weight.real), e2))
    split = len({col[i] for i in rows}) > 1  # 0j and -0j are one value
    return (s, class_of, vacuum, split, success, tuple(branches), tuple(failures)), rows


# herald beams: signed zeros; vacuum-class values with the rounded key of 0
# (0.3e-12, -0.2e-12) and with another (-0.9e-12); 0.6e-12 and 0.9e-12, a
# second class within MERGE_TOL of 0 once -0.9e-12 holds the first; and
# failure beams 0.9 and 1.1 tolerances from 500
HERALD_BEAMS = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.3e-12, -0.2e-12, -0.9e-12, 0.6e-12,
    0.9e-12, 1.0, 500.0, 500.0 + 0.9 * MERGE_TOL * 500.0, 500.0 + 1.1 * MERGE_TOL * 500.0,
    3.0 + 4.0j, 3.0 - 4.0j,
)


def test_herald_over_distinct_values_equals_the_per_term_rule():
    # The herald runs the merge rule over its column's distinct values and
    # gives each term its value's class.  On hand-built states with one or
    # two beams, drawn from a few herald beams each, the classes, branches
    # and failures, and the vacuum rows (order included) that the heralded
    # state keeps, must be exactly those of the per-term rule.  The labels are distinct,
    # in shuffled order, so no cross pair moves a class weight past the
    # herald's checks.
    rng = random.Random("distinct herald")
    layouts = [RegisterLayout(party_dims=(4, 4), qubus_count=beams) for beams in (1, 2)]
    every_label = [(a, b) for a in range(4) for b in range(4)]
    seen = set()
    for _ in range(1500):
        layout = rng.choice(layouts)
        beams = layout.qubus_count
        pool = rng.sample(HERALD_BEAMS, rng.randint(1, 5))
        terms = [
            Term(complex(rng.gauss(0, 1), rng.gauss(0, 1)), lab,
                 tuple(rng.choice(pool) for _ in range(beams)))
            for lab in rng.sample(every_label, rng.randint(1, len(every_label)))
        ]
        scale = 1.0 / math.sqrt(state_norm_sq(HybridState(layout, terms)))
        state = HybridState(layout, [Term(t.amp * scale, t.labels, t.qubus) for t in terms])
        beam = rng.randrange(beams)
        expected, vacuum = classify_per_term(state, beam)
        s, _, _, _, success, branches, _ = expected
        classes = _classify_branches(state, beam)
        assert repr(tuple(classes)) == repr(expected)
        if success > 0.0:
            kept = [Term(s.amps[i] * (1.0 / math.sqrt(success)), s.labels[i],
                         s.terms[i].qubus[:beam] + s.terms[i].qubus[beam + 1:]) for i in vacuum]
        else:
            kept = []
        heralded = HybridState(layout.replace(qubus_count=beams - 1), kept)
        outcome = herald_vacuum(state, beam, DetectorModel(0.7))
        assert repr(outcome.heralded_state) == repr(heralded)
        col = s.beams[beam]
        values = {(q.real.hex(), q.imag.hex()) for q in (col[i] for i in vacuum)}
        keys = {_beam_key(col[i]) for i in vacuum}
        if len(values) > 1:
            seen.add("same key" if len(keys) == 1 else "keys")
        if any(math.copysign(1.0, q.real) < 0 and q == 0 for q in col):
            seen.add("signed zero")
        if sum(qubus_close(rep, 0.0) for rep, _, _ in branches) > 1:
            seen.add("two vacuum classes")
    assert seen == {"same key", "keys", "signed zero", "two vacuum classes"}


def test_branch_record_serialization_is_finite():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel())
    for record in outcome.branch_table:
        d = record.to_dict()
        assert all(math.isfinite(v) for v in d["beam_amp"])
        assert math.isfinite(d["weight"])
        assert math.isfinite(d["no_click"])
        assert math.isfinite(d["no_click_log10"])


def asym_qutrit_with_ancilla(m=0):
    """Post-second-stage state: sum_j a_j b_{j+1} |j>|j+1>|j>_s, balanced
    magnitudes with phase pattern tau^{jm} on the first register."""
    layout = RegisterLayout(party_dims=(3, 3), ancilla_modes=3)
    a = phased_coeffs(3, m)
    terms = tuple(Term(a[j], (j, (j + 1) % 3, j)) for j in range(3))
    return HybridState(layout, terms)


def test_feedforward_identity_outcome():
    state = apply_fourier_lomi(asym_qutrit_with_ancilla())
    outs = feedforward_outcomes(state, 0)
    # the k0 = 0 correction is the identity: plain projection, rescaled
    uncorrected = [t for t in state.terms if t.labels[2] == 0]
    assert len(uncorrected) == len(outs[0].terms)
    assert overlap_sq(outs[0], target_state(3, 0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_feedforward_erases_ancilla_and_reaches_target():
    for m in range(3):
        state = apply_fourier_lomi(asym_qutrit_with_ancilla(m))
        result = measure_ancilla_and_feedforward(state, 0)
        assert not result.layout.has_ancilla
        assert overlap_sq(result, target_state(3, m, 1)) == pytest.approx(
            1.0, abs=1e-10
        )


def test_feedforward_outcomes_pairwise_identical():
    state = apply_fourier_lomi(asym_qutrit_with_ancilla())
    outs = feedforward_outcomes(state, 0)
    assert len(outs) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert overlap_sq(outs[i], outs[j]) == pytest.approx(1.0, abs=1e-10)


def test_feedforward_correction_party_choice_is_free():
    # correcting on the second register differs only by a global phase per
    # outcome, so the result is the same state
    state = apply_fourier_lomi(asym_qutrit_with_ancilla())
    via_first = measure_ancilla_and_feedforward(state, 0)
    via_second = measure_ancilla_and_feedforward(state, 1)
    assert overlap_sq(via_first, via_second) == pytest.approx(1.0, abs=1e-10)


def test_feedforward_rejects_untransformed_state():
    # without the Fourier step the outcomes genuinely differ
    with pytest.raises(FeedforwardError):
        measure_ancilla_and_feedforward(asym_qutrit_with_ancilla(), 0)
    # an outcome whose amplitudes cancel exactly is unreachable
    layout = RegisterLayout(party_dims=(2,), ancilla_modes=2)
    cancelled = HybridState(
        layout, (Term(1.0, (0, 0)), Term(0.5, (1, 1)), Term(-0.5, (1, 1)))
    )
    with pytest.raises(FeedforwardError, match="outcome 1 is unreachable"):
        feedforward_outcomes(cancelled, 0)


def feedforward_by_outcome(state, correction_party):
    """Reference: for each detection outcome in turn, the corrected sub-state
    of its terms, canonicalized, checked for reachability and renormalized
    by its own norm."""
    layout = state.layout
    slot, n = layout.ancilla_slot, layout.ancilla_modes
    new_layout = layout.replace(ancilla_modes=0)
    outcomes = []
    for k0 in range(n):
        terms = [
            Term(t.amp * cmath.exp(-2j * math.pi * t.labels[correction_party] * k0 / n),
                 t.labels[:slot] + t.labels[slot + 1:], t.qubus)
            for t in state.terms if t.labels[slot] == k0
        ]
        out = canonicalize(HybridState(new_layout, terms))
        norm_sq = state_norm_sq(out) if out.amps else 0.0
        if not norm_sq > 0.0:
            raise FeedforwardError(f"feedforward failed: detection outcome {k0} is unreachable")
        scale = 1.0 / math.sqrt(norm_sq)
        outcomes.append(HybridState(
            new_layout, [Term(t.amp * scale, t.labels, t.qubus) for t in out.terms]
        ))
    return outcomes


# beams within MERGE_TOL of 500 and of each other, one just beyond it, signed
# zeros, and a herald-like pair with one real part
FEEDFORWARD_BEAMS = (
    500.0, 500.0 + 0.9 * MERGE_TOL * 500.0, 500.0 + 1.1 * MERGE_TOL * 500.0,
    0j, complex(-0.0, 0.0), 0.5 * MERGE_TOL, 3.0 + 4.0j, 3.0 - 4.0j,
)
# a pair that cancels exactly and one that cancels below DROP_TOL
FEEDFORWARD_AMPS = (0.3 + 0.1j, -0.3 - 0.1j, -0.3 - 0.1j + 0.4 * DROP_TOL, -0.6j)


def _feedforward_state(rng, beams):
    """A state on parties of dimension 3 and 2 and a 3-mode spatial register,
    its few labels repeated and its beams and amplitudes drawn from pools of
    near-ties and cancelling pairs."""
    layout = RegisterLayout(party_dims=(3, 2), ancilla_modes=3, qubus_count=beams)
    labels = [(rng.randrange(3), rng.randrange(2), rng.randrange(3)) for _ in range(5)]
    terms = []
    for _ in range(rng.randint(1, 14)):
        amp = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if rng.random() < 0.6:
            amp = rng.choice(FEEDFORWARD_AMPS)
        qubus = tuple(rng.choice(FEEDFORWARD_BEAMS) for _ in range(beams))
        terms.append(Term(amp, rng.choice(labels), qubus))
    return HybridState(layout, terms)


def _merge_cases(state):
    """Which merge cases ``state`` holds: distinct beam tuples of one label
    merged, tuples of one label within two tolerances kept apart, and a
    merged group that cancels below DROP_TOL."""
    rows = [t.qubus for t in state.terms]
    by_labels = {}
    for i, labels in enumerate(state.labels):
        by_labels.setdefault(labels, []).append(i)
    cases = set()
    for index in by_labels.values():
        groups = _merge_groups(state.beams, index)
        for g in groups:
            if len({rows[i] for i in g}) > 1:
                cases.add("merged")
            amp = state.amps[g[0]]
            for i in g[1:]:
                amp += state.amps[i]
            if abs(amp) < DROP_TOL:
                cases.add("cancelled")
        reps = [rows[g[0]] for g in groups]
        for p, q in itertools.combinations(reps, 2):
            if all(abs(u - v) <= 2 * MERGE_TOL * max(1.0, abs(u)) for u, v in zip(p, q)):
                cases.add("apart")
    return cases


def _result_or_error(build, *args):
    try:
        return repr(build(*args))
    except FeedforwardError as exc:
        return f"FeedforwardError: {exc}"


def test_feedforward_outcomes_equal_the_per_outcome_reference():
    # one corrected, canonicalized state for every outcome gives, bit for
    # bit, each outcome's own canonical state and norm
    rng = random.Random("feedforward")
    seen = dict.fromkeys(("merged", "apart", "cancelled", "unreachable", "reached"), 0)
    for beams in (0, 1, 2):
        for party in (0, 1):
            for _ in range(150):
                state = _feedforward_state(rng, beams)
                got = _result_or_error(feedforward_outcomes, state, party)
                assert got == _result_or_error(feedforward_by_outcome, state, party), state
                if got.startswith("FeedforwardError"):
                    seen["unreachable"] += 1
                    continue
                seen["reached"] += 1
                for case in _merge_cases(state):
                    seen[case] += 1
    # every case the reference distinguishes came up, the merge cases in
    # states whose outcomes are all reachable
    assert min(seen.values()) >= 10, seen
    # a two-term outcome whose amplitudes cancel is unreachable, and the
    # error names the first such outcome
    layout = RegisterLayout(party_dims=(2,), ancilla_modes=3)
    state = HybridState(layout, (
        Term(1.0, (0, 0)), Term(0.5, (1, 1)), Term(-0.5 + 0.4 * DROP_TOL, (1, 1)),
    ))
    for build in (feedforward_outcomes, feedforward_by_outcome):
        with pytest.raises(FeedforwardError, match="^feedforward failed: detection outcome 1 is unreachable$"):
            build(state, 0)


def test_feedforward_checks_every_amplitude_before_reachability():
    # Every outcome is corrected and merged before any is checked for
    # reachability, so an amplitude that overflows raises ValueError even
    # when an outcome before it is unreachable.  Outcome 0 is empty here.
    layout = RegisterLayout(party_dims=(8,), ancilla_modes=8)
    huge = complex(1.7e308, 1.7e308)
    # exp(-i pi / 4) takes the real part to 0.707 (1.7e308 + 1.7e308) = inf
    corrected = HybridState(layout, (Term(huge, (1, 1)),))
    # a finite correction of 1e308 twice, merged into one label
    merged = HybridState(layout, (Term(1e308, (0, 1)), Term(1e308, (0, 1))))
    for state in (corrected, merged):
        with pytest.raises(ValueError, match="term amplitude must be finite"):
            feedforward_outcomes(state, 0)
        with pytest.raises(FeedforwardError, match="outcome 0 is unreachable"):
            feedforward_by_outcome(state, 0)


def test_feedforward_rejects_an_outcome_whose_norm_cancels_to_zero():
    # Two equal-label terms on beams 1.1 MERGE_TOL apart are kept apart, and
    # their amplitudes 0.5 and -0.5 cancel in the norm: 0.25 + 0.25 - 2 (0.25
    # times an overlap that rounds to 1) is 0.0, so outcome 1 is unreachable
    # although it holds two terms.  Outcome 2 is empty, so the error names
    # the first unreachable outcome in k0 order.
    layout = RegisterLayout(party_dims=(2,), ancilla_modes=3, qubus_count=1)
    apart = 500.0 + 1.1 * MERGE_TOL * 500.0
    state = HybridState(layout, (
        Term(1.0, (0, 0), (500.0,)),
        Term(0.5, (1, 1), (500.0,)),
        Term(-0.5, (1, 1), (apart,)),
    ))
    assert len(canonicalize(state).amps) == 3
    for build in (feedforward_outcomes, feedforward_by_outcome):
        with pytest.raises(FeedforwardError, match="^feedforward failed: detection outcome 1 is unreachable$"):
            build(state, 0)
    # with outcome 1 reachable, the empty outcome 2 is the one named
    reached = HybridState(layout, state.terms[:2])
    with pytest.raises(FeedforwardError, match="outcome 2 is unreachable$"):
        feedforward_outcomes(reached, 0)


def _bits(row):
    """The IEEE bytes of a row of complex numbers: equal bytes are equal
    reprs, signed zeros included (and cost a third of the time of repr)."""
    return array.array("d", [x for z in row for x in (z.real, z.imag)]).tobytes()


def test_phase_rows_equal_their_per_element_expressions():
    # The Fourier and the feedforward take their phases from memoized rows;
    # every row is, bit for bit, its layer's own per-element expression.
    for n in range(1, 65):
        for j in range(n):
            fourier = [cmath.exp(2j * math.pi * j * k / n) for k in range(n)]
            correction = [cmath.exp(-2j * math.pi * j * k0 / n) for k0 in range(n)]
            assert _bits(_fourier_row(n, j)) == _bits(fourier), (n, j)
            assert _bits(_correction_row(n, j)) == _bits(correction), (n, j)
    # a party of dimension 5 on a 3-mode register has correction labels j >= n
    for j in (3, 4):
        correction = [cmath.exp(-2j * math.pi * j * k0 / 3) for k0 in range(3)]
        assert _bits(_correction_row(3, j)) == _bits(correction), j
    layout = RegisterLayout(party_dims=(5,), ancilla_modes=3)
    state = apply_fourier_lomi(HybridState(layout, (Term(0.6, (4, 1)), Term(0.8, (3, 2)))))
    assert repr(feedforward_outcomes(state, 0)) == repr(feedforward_by_outcome(state, 0))
    # the feedforward builds the rows of the labels a state holds, not one
    # per label value its party could take
    wide = RegisterLayout(party_dims=(4096,), ancilla_modes=3)
    state = apply_fourier_lomi(HybridState(wide, (Term(0.6, (4095, 1)), Term(0.8, (3, 2)))))
    _correction_row.cache_clear()
    assert repr(feedforward_outcomes(state, 0)) == repr(feedforward_by_outcome(state, 0))
    assert _correction_row.cache_info().misses == 2


def test_phase_row_memos_are_bounded():
    # 256 rows per memo; a row of N_MAX entries (40 bytes each with its
    # tuple slot) keeps each memo under the 11 MB its docstring states
    row = _fourier_row.__wrapped__(N_MAX, 1)
    row_bytes = sys.getsizeof(row) + sum(map(sys.getsizeof, row))
    for memo in (_fourier_row, _correction_row):
        assert memo.cache_info().maxsize == 256
        assert memo.cache_info().maxsize * row_bytes < 11e6


def _outcomes_off_by_phase(delta):
    """A one-party qubit state whose two detection outcomes, once corrected,
    differ by the relative phase delta on the label-1 half: fidelity
    cos^2(delta / 2)."""
    layout = RegisterLayout(party_dims=(2,), ancilla_modes=2)
    # outcome k0 = 1 is corrected by exp(-i pi j), which the sign undoes
    terms = [Term(0.5, (0, 0)), Term(0.5, (1, 0)),
             Term(0.5, (0, 1)), Term(-0.5 * complex(math.cos(delta), math.sin(delta)), (1, 1))]
    return HybridState(layout, terms)


def test_feedforward_tolerance_edge():
    # 1 - F = sin^2(delta / 2): accepted just inside FEEDFORWARD_TOL,
    # rejected just outside it
    for ratio, accepted in ((0.9, True), (1.1, False)):
        delta = 2.0 * math.asin(math.sqrt(ratio * FEEDFORWARD_TOL))
        state = _outcomes_off_by_phase(delta)
        if accepted:
            out = measure_ancilla_and_feedforward(state, 0)
            assert out == feedforward_outcomes(state, 0)[0]
        else:
            with pytest.raises(FeedforwardError, match="outcomes disagree"):
                measure_ancilla_and_feedforward(state, 0)


def test_feedforward_outcome_checks_pair_terms_index_by_index(monkeypatch):
    # Every outcome of a protocol state holds the same stripped labels, so
    # the n - 1 agreement checks pair their terms index by index: with the
    # class-weighted norm, n sums through the equal-column path of _inner.
    for n, shifts in ((3, (0, 1)), (8, (0, 1, 5))):
        report = generate(ProtocolSpec.balanced(n, len(shifts), shifts, THETA, ALPHA))
        state = apply_fourier_lomi(report.per_stage[-1].heralded_state)
        outcomes = feedforward_outcomes(state, 0)
        assert len(outcomes) == n
        reduced = []

        def reduce(*args):
            reduced.append(args)
            return functools.reduce(*args)

        with monkeypatch.context() as patch:
            patch.setattr(state_module, "functools", types.SimpleNamespace(reduce=reduce))
            assert measure_ancilla_and_feedforward(state, 0) == outcomes[0]
        assert len(reduced) == n
    # outcomes whose labels agree but whose amplitudes do not still raise
    state = _outcomes_off_by_phase(0.1)
    with pytest.raises(FeedforwardError, match="outcomes disagree"):
        measure_ancilla_and_feedforward(state, 0)


def _run_or_error(build, *args) -> str:
    try:
        return repr(build(*args))
    except (ValueError, FeedforwardError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _proof_state(rng, layout, pool):
    """A normalized state on ``layout`` whose beams come from ``pool``: its
    labels are either distinct and in order, so that canonicalize returns
    it as it is, or drawn with repeats in any order; a few amplitudes are
    set just below or above DROP_TOL after normalizing."""
    every_label = sorted(itertools.product(*map(range, layout.label_dims())))
    if rng.random() < 0.5:
        labels = sorted(rng.sample(every_label, rng.randint(1, min(12, len(every_label)))))
    else:
        labels = [rng.choice(every_label[:6]) for _ in range(rng.randint(1, 12))]
    terms = [
        Term(complex(rng.gauss(0, 1), rng.gauss(0, 1)), lab,
             tuple(rng.choice(pool) for _ in range(layout.qubus_count)))
        for lab in labels
    ]
    scale = 1.0 / math.sqrt(state_norm_sq(HybridState(layout, terms)))
    amps = [t.amp * scale for t in terms]
    for i in range(len(amps)):
        if rng.random() < 0.1:
            amps[i] = rng.choice((0.9, 1.1, -1.1j)) * DROP_TOL
    return HybridState(layout, [Term(a, t.labels, t.qubus) for a, t in zip(amps, terms)])


def test_distinct_label_proof_changes_no_result(monkeypatch):
    # When canonicalize returns a state as it is, its labels strictly
    # increase, and the herald's class-weighted _inner call and the
    # feedforward's norm pass hand that proof on instead of building
    # set(labels).  The n - 1 outcome checks always pass it: they pair by
    # index only when no outcome holds a beam, and a beamless state's equal
    # labels merge.  On hand-built states (repeated labels with beams apart,
    # amplitudes near DROP_TOL, signed zeros, 2-3 beams for the herald and
    # 0, 2 or 3 for the feedforward) every result or error is repr-identical
    # with and without the proof; the herald and the norms pass it exactly
    # when canonicalize returned its input, and wherever a proof decides
    # the index pairing, no label of the state repeats.
    import qubus_forge.heralding as heralding_module

    calls = []  # (caller, proof) per _inner call, ("canonicalize", as is)
    paired = []  # the caller of each _inner call that pairs by index on a proof
    keep_proof = True

    def inner(a, b, classes=None, distinct=False):
        caller = sys._getframe(1).f_code.co_name
        calls.append((caller, distinct))
        if distinct and (a is b or not (a.beams or b.beams)) and a.labels == b.labels:
            assert len(set(a.labels)) == len(a.labels)
            paired.append(caller)
        return _inner(a, b, classes, distinct and keep_proof)

    def recording(state):
        out = canonicalize(state)
        calls.append(("canonicalize", out is state))
        return out

    monkeypatch.setattr(heralding_module, "_inner", inner)
    monkeypatch.setattr(heralding_module, "canonicalize", recording)

    def both_ways(build, *args):
        nonlocal keep_proof
        results = []
        for keep_proof in (True, False):
            calls.clear()
            paired.clear()
            results.append(_run_or_error(build, *args))
        assert results[0] == results[1], args
        walked = [as_is for caller, as_is in calls if caller == "canonicalize"]
        assert len(walked) == 1
        for caller, proof in calls:
            if caller == "measure_ancilla_and_feedforward":
                assert proof is True
            elif caller != "canonicalize":
                assert proof == walked[0], (calls, args)
        return walked[0], [caller for caller, _ in calls], results[0]

    rng = random.Random("distinct-label proof")
    seen = set()
    for beams in (2, 3):
        layout = RegisterLayout(party_dims=(3, 3), qubus_count=beams)
        for _ in range(300):
            state = _proof_state(rng, layout, HERALD_BEAMS)
            as_is, callers, _ = both_ways(
                herald_vacuum, state, rng.randrange(beams), DetectorModel(0.7)
            )
            if "_classify_branches" in callers:
                seen.add(("herald", as_is))
    pool = FEEDFORWARD_BEAMS + HERALD_BEAMS
    sources = [apply_fourier_lomi(asym_qutrit_with_ancilla(m)) for m in range(3)]
    for beams in (0, 2, 3):
        layout = RegisterLayout(party_dims=(3, 2), ancilla_modes=3, qubus_count=beams)
        for trial in range(300):
            if beams == 0 and trial % 4 == 0:  # outcomes that agree
                state = sources[trial % 3]
            else:
                state = _proof_state(rng, layout, pool)
            party = rng.randrange(2)
            as_is, _, _ = both_ways(feedforward_outcomes, state, party)
            as_is, callers, result = both_ways(measure_ancilla_and_feedforward, state, party)
            if "feedforward_outcomes" in callers:
                seen.add(("feedforward", as_is))
            if "measure_ancilla_and_feedforward" in callers:
                seen.add(("checks", as_is))
            if "measure_ancilla_and_feedforward" in paired:
                seen.add(("paired", as_is))
            if not result.startswith(("ValueError", "FeedforwardError")):
                seen.add(("agree", as_is))
    assert seen == {(what, as_is)
                    for what in ("herald", "feedforward", "checks", "paired", "agree")
                    for as_is in (True, False)}, seen


def test_feedforward_rejects_missing_register():
    bare = HybridState(RegisterLayout(party_dims=(3,)), (Term(1.0, (0,)),))
    with pytest.raises(ValueError, match="spatial register"):
        measure_ancilla_and_feedforward(bare, 0)


def test_stage_two_error_uses_actual_branch_weights():
    # with unbalanced coefficients the failure-branch weights are
    # coefficient-dependent; pin them to a direct enumeration over the
    # (first label, second label) pairs and show they differ from the
    # balanced-input formula
    n, k, eta = 3, 1, 1.0
    a = (0.9 + 0j, math.sqrt(1 - 0.81 - 0.01) + 0j, 0.1 + 0j)
    b = (0.2 + 0j, 0.4j, math.sqrt(1 - 0.04 - 0.16) + 0j)
    first = _run_stage(
        prepare_single_photon_qudit(n), a, 0, THETA, ALPHA,
        DetectorModel(),
    )
    second = _run_stage(first.heralded_state, b, k, THETA, ALPHA,
                        DetectorModel(eta))
    expected = 0.0
    for j in range(n):
        for m in range(n):
            d = ((j + k) % n) - m
            if d == 0:
                continue
            energy = 2.0 * ALPHA**2 * math.sin(d * THETA / 2.0) ** 2
            expected += abs(a[j] * b[m]) ** 2 * math.exp(-eta * energy)
    assert second.error_prob == pytest.approx(expected, rel=1e-10)
    assert second.error_prob != pytest.approx(qutrit_silent_failure_prob(ALPHA, THETA),
                                              rel=1e-3)


def test_stage_runner_matches_direct_herald():
    ancilla = prepare_single_photon_qudit(3)
    outcome = _run_stage(
        ancilla, phased_coeffs(3, 0), 0, THETA, ALPHA, DetectorModel()
    )
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert outcome.heralded_state.layout.qubus_count == 0
