import math

import pytest

from qubus_forge.elements import apply_fourier_lomi
from qubus_forge.heralding import (
    DetectorModel,
    FeedforwardError,
    feedforward_outcomes,
    herald_vacuum,
    measure_ancilla_and_feedforward,
)
from qubus_forge.protocols import (
    _attach_party,
    _run_stage,
    _with_fresh_beams,
    balanced_coeffs,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.elements import PhaseMap, apply_bs_5050, apply_qubus_phase, apply_xpm
from qubus_forge.state import (
    HybridState,
    RegisterLayout,
    Term,
    canonicalize,
    overlap_sq,
    state_norm_sq,
)

ALPHA = 500.0
THETA = 0.01


def qutrit_silent_failure_prob(alpha, theta, eta=1.0):
    """Literal transcription of the balanced-qutrit silent-failure formula."""
    return (4.0 / 9.0) * math.exp(-2.0 * eta * alpha**2 * math.sin(theta / 2.0) ** 2) \
        + (2.0 / 9.0) * math.exp(-2.0 * eta * alpha**2 * math.sin(theta) ** 2)


def stage_one_pre_herald(n=3, alpha=ALPHA, theta=THETA):
    """Balanced first-stage state just before the herald detector."""
    state = _attach_party(prepare_single_photon_qudit(n), balanced_coeffs(n))
    state = _with_fresh_beams(state, alpha)
    state = apply_xpm(state, 0, PhaseMap.stage(n, 0, target_beam=1), theta)
    state = apply_qubus_phase(state, 1, -(n - 1) * theta)
    return apply_bs_5050(state, (0, 1))


def test_detector_model_kinds():
    assert DetectorModel.ideal_pnnd() == DetectorModel.on_off(1.0)
    assert DetectorModel.ideal_pnnd().kind == "ideal_pnnd"
    assert DetectorModel.on_off(0.7).kind == "on_off"
    with pytest.raises(ValueError):
        DetectorModel.on_off(1.5)
    with pytest.raises(ValueError):
        DetectorModel.on_off(-0.1)


def test_detector_no_click_probability():
    det = DetectorModel.on_off(0.7)
    assert det.no_click_prob(0.0) == 1.0
    assert det.no_click_log(2.0) == pytest.approx(-0.7 * 4.0, rel=1e-15)


def test_herald_balanced_qutrit_stage():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel.ideal_pnnd())
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
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel.ideal_pnnd())
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
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel.on_off(0.7))
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
    outcome = herald_vacuum(state, 0, DetectorModel.ideal_pnnd())
    assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
    assert outcome.error_prob == 0.0
    assert outcome.error_prob_log == float("-inf")


def test_herald_without_vacuum_branch_flags_failure():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout,
        (Term(1 / math.sqrt(2), (0,), (3.0,)), Term(1 / math.sqrt(2), (1,), (-3.0,))),
    )
    outcome = herald_vacuum(state, 0, DetectorModel.ideal_pnnd())
    assert outcome.success_prob == 0.0
    assert outcome.heralded_state.terms == ()
    assert outcome.error_prob == pytest.approx(math.exp(-9.0), rel=1e-12)


def test_herald_success_plus_failure_weights_is_one():
    for n in (2, 3, 5):
        outcome = herald_vacuum(
            stage_one_pre_herald(n), 0, DetectorModel.ideal_pnnd()
        )
        total = sum(b.weight for b in outcome.branch_table)
        assert total == pytest.approx(1.0, abs=1e-9)
        nonvac = sum(b.weight for b in outcome.branch_table if abs(b.beam_amp) > 1e-9)
        assert outcome.success_prob + nonvac == pytest.approx(1.0, abs=1e-9)


def test_herald_error_monotone_in_alpha_and_eta():
    pre = {a: stage_one_pre_herald(alpha=a) for a in (1.0, 5.0, 20.0, 100.0)}
    for eta in (0.3, 0.7, 1.0):
        errs = [
            herald_vacuum(pre[a], 0, DetectorModel.on_off(eta)).error_prob
            for a in (1.0, 5.0, 20.0, 100.0)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(errs, errs[1:]))
    for alpha in (1.0, 20.0):
        errs = [
            herald_vacuum(pre[alpha], 0, DetectorModel.on_off(eta)).error_prob
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
        stage_one_pre_herald(alpha=0.0), 0, DetectorModel.ideal_pnnd()
    )
    assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
    assert outcome.error_prob == 0.0
    assert len(outcome.branch_table) == 1
    # the unfiltered state still holds all nine label branches
    assert outcome.heralded_state.num_terms == 9


def test_herald_requires_normalized_state():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(layout, (Term(0.5, (0,), (0.0,)),))
    with pytest.raises(ValueError, match="normalized"):
        herald_vacuum(state, 0, DetectorModel.ideal_pnnd())
    with pytest.raises(ValueError, match="beam index"):
        herald_vacuum(state, 3, DetectorModel.ideal_pnnd())
    with pytest.raises(ValueError, match="empty state"):
        herald_vacuum(HybridState(layout, ()), 0, DetectorModel.ideal_pnnd())
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
            outcome = herald_vacuum(state, 0, DetectorModel.ideal_pnnd())
            assert outcome.success_prob == pytest.approx(0.5, abs=1e-15)
        else:
            with pytest.raises(ValueError, match="normalized"):
                herald_vacuum(state, 0, DetectorModel.ideal_pnnd())


def test_branch_table_merge_tolerance_edge():
    # herald beams closer than MERGE_TOL are one branch class (here the
    # vacuum class); beams 1.1 tolerances apart are two
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    amp = math.sqrt(0.5)
    for beam, records in ((0.9e-12, 1), (1.1e-12, 2)):
        state = HybridState(layout, (Term(amp, (0,), (0.0,)), Term(amp, (1,), (beam,))))
        outcome = herald_vacuum(state, 0, DetectorModel.ideal_pnnd())
        assert len(outcome.branch_table) == records
        assert outcome.success_prob == pytest.approx(1.0 / records, abs=1e-15)


def test_branch_record_serialization_is_finite():
    outcome = herald_vacuum(stage_one_pre_herald(), 0, DetectorModel.ideal_pnnd())
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
        DetectorModel.ideal_pnnd(),
    )
    second = _run_stage(first.heralded_state, b, k, THETA, ALPHA,
                        DetectorModel.on_off(eta))
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
        ancilla, balanced_coeffs(3), 0, THETA, ALPHA, DetectorModel.ideal_pnnd()
    )
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert outcome.heralded_state.layout.qubus_count == 0
