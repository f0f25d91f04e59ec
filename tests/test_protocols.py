import cmath
import math

import numpy as np
import pytest

from qubus_forge.elements import apply_pbs, apply_su2, pol_flip, prep_rotation
from qubus_forge.heralding import DetectorModel
from qubus_forge.protocols import (
    ProtocolSpec,
    _run_stage,
    balanced_coeffs,
    coeff_phase_index,
    entangle_stage,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.state import (
    POL_V,
    HybridState,
    RegisterLayout,
    Term,
    overlap_sq,
)

THETA = 0.01
ALPHA = 500.0


def test_prepare_trivial_dimension():
    state = prepare_single_photon_qudit(1)
    assert state.layout.ancilla_modes == 1
    assert state.terms == (Term(1.0, (0,)),)
    with pytest.raises(ValueError):
        prepare_single_photon_qudit(0)


def test_prepare_balanced_qutrit():
    state = prepare_single_photon_qudit(3)
    assert [t.labels for t in state.terms] == [(0,), (1,), (2,)]
    for t in state.terms:
        assert t.amp == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


@pytest.mark.parametrize("n", [2, 5, 7, 12])
def test_prepare_amplitudes_are_uniform(n):
    state = prepare_single_photon_qudit(n)
    assert state.num_terms == n
    for t in state.terms:
        assert abs(t.amp - 1.0 / math.sqrt(n)) < 1e-12


def test_prepare_cascade_peels_equal_weight_each_step():
    # replay the cascade for n = 7; after each rotation the vertical branch
    # in the work mode must carry exactly 1/n of the total weight
    n = 7
    layout = RegisterLayout(prep_modes=n + 1)
    work = layout.work_mode
    state = HybridState(layout, (Term(1.0, (work, 0)),))
    for j in range(n - 1):
        state = apply_su2(state, prep_rotation(n, j))
        v_weight = sum(
            abs(t.amp) ** 2
            for t in state.terms
            if t.labels[0] == work and t.labels[1] == POL_V
        )
        assert v_weight == pytest.approx(1.0 / n, rel=1e-12)
        state = apply_pbs(state, work, j)
    state = apply_su2(state, pol_flip())
    state = apply_pbs(state, work, n - 1)
    weights = sorted(abs(t.amp) ** 2 for t in state.terms)
    assert weights == pytest.approx([1.0 / n] * n, rel=1e-12)


def test_stage_one_heralds_party_register_correlation():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = tuple(raw / np.linalg.norm(raw))
    outcome = _run_stage(
        prepare_single_photon_qudit(3), a, 0, THETA, ALPHA,
        DetectorModel.ideal_pnnd(),
    )
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    expected = HybridState(
        RegisterLayout(party_dims=(3,), ancilla_modes=3),
        tuple(Term(a[j], (j, j)) for j in range(3)),
    )
    assert overlap_sq(outcome.heralded_state, expected) == pytest.approx(
        1.0, abs=1e-10
    )


def test_stage_two_balanced_shift_one():
    spec = ProtocolSpec.balanced(3, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
    state = prepare_single_photon_qudit(3)
    state = entangle_stage(state, spec, 0).heralded_state
    outcome = entangle_stage(state, spec, 1)
    assert outcome.success_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    labels = sorted(t.labels for t in outcome.heralded_state.terms)
    assert labels == [(0, 1, 0), (1, 2, 1), (2, 0, 2)]


def test_stage_two_single_surviving_branch():
    a = (1.0 + 0j, 0j, 0j)
    b = (0j, 1.0 + 0j, 0j)
    spec = ProtocolSpec(
        n=3, parties=2, shifts=(0, 1), coeffs=(a, b), theta=THETA, alpha=ALPHA
    )
    state = prepare_single_photon_qudit(3)
    state = entangle_stage(state, spec, 0).heralded_state
    outcome = entangle_stage(state, spec, 1)
    assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
    assert [t.labels for t in outcome.heralded_state.terms] == [(0, 1, 0)]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2)])
def test_stage_two_success_matches_coefficient_formula(n, k):
    rng = np.random.default_rng(n * 10 + k)
    for _ in range(5):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        state = _run_stage(
            prepare_single_photon_qudit(n), tuple(a), 0, THETA, ALPHA,
            DetectorModel.ideal_pnnd(),
        ).heralded_state
        outcome = _run_stage(
            state, tuple(b), k, THETA, ALPHA, DetectorModel.ideal_pnnd()
        )
        expected = sum(abs(a[j] * b[(j + k) % n]) ** 2 for j in range(n))
        assert outcome.success_prob == pytest.approx(expected, rel=1e-10)


def test_generate_asymmetric_qutrits():
    spec = ProtocolSpec.balanced(3, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    assert report.success_prob == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert report.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)
    assert report.failed_stage is None
    assert len(report.per_stage) == 2
    assert report.final_state.layout.party_dims == (3, 3)
    assert not report.final_state.layout.has_ancilla


def test_generate_bell_pair():
    spec = ProtocolSpec.balanced(2, 2, shifts=(0, 0), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    assert report.success_prob == pytest.approx(0.25, abs=1e-12)
    bell = HybridState(
        RegisterLayout(party_dims=(2, 2)),
        (Term(1 / math.sqrt(2), (0, 0)), Term(1 / math.sqrt(2), (1, 1))),
    )
    assert overlap_sq(report.final_state, bell) == pytest.approx(1.0, abs=1e-10)


def test_generate_three_parties():
    spec = ProtocolSpec.balanced(3, 3, shifts=(0, 0, 0), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    assert report.success_prob == pytest.approx(1.0 / 27.0, abs=1e-12)
    assert report.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)
    assert report.final_state.layout.party_dims == (3, 3, 3)


def test_generate_orthogonal_approx_success_is_exact():
    for n in range(2, 9):
        for parties in (2, 3):
            spec = ProtocolSpec.balanced(
                n, parties, shifts=(0, 1 % n) + (0,) * (parties - 2),
                theta=THETA, alpha=ALPHA,
            )
            assert generate(spec).success_prob == pytest.approx(
                n**-parties, abs=1e-12
            )


def test_generate_reports_failed_stage():
    a = (1.0 + 0j, 0j, 0j)
    b = (0j, 0j, 1.0 + 0j)
    spec = ProtocolSpec(
        n=3, parties=2, shifts=(0, 1), coeffs=(a, b), theta=THETA, alpha=ALPHA
    )
    report = generate(spec)
    assert report.success_prob == 0.0
    assert report.failed_stage == 1
    assert report.final_state.terms == ()
    assert report.fidelity_vs_target is None


def test_generate_unbalanced_inputs_have_no_target():
    a = (0.8 + 0j, 0.6 + 0j, 0j)
    b = (0.6 + 0j, 0j, 0.8 + 0j)
    spec = ProtocolSpec(
        n=3, parties=2, shifts=(0, 1), coeffs=(a, b), theta=THETA, alpha=ALPHA
    )
    report = generate(spec)
    assert report.fidelity_vs_target is None
    # stage 1 heralds with 1/3; stage 2 with sum_j |a_j b_{j+1}|^2 = 0.2304
    assert report.success_prob == pytest.approx(0.2304 / 3.0, rel=1e-10)


def test_target_state_examples():
    t = target_state(3, 0, 1)
    assert sorted(x.labels for x in t.terms) == [(0, 1), (1, 2), (2, 0)]
    for x in t.terms:
        assert x.amp == pytest.approx(1 / math.sqrt(3), rel=1e-14)

    t = target_state(2, 1, 0)
    amps = {x.labels: x.amp for x in t.terms}
    assert amps[(0, 0)] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert amps[(1, 1)] == pytest.approx(-1 / math.sqrt(2), rel=1e-14)

    t = target_state(4, 2, 3)
    signs = [round((x.amp * math.sqrt(4)).real) for x in t.terms]
    assert signs == [1, -1, 1, -1]


def test_target_state_validation():
    with pytest.raises(ValueError):
        target_state(3, 3, 0)
    with pytest.raises(ValueError):
        target_state(3, 0, 3)
    with pytest.raises(ValueError):
        target_state(3, 0, (1, 1))  # first shift must be 0


def test_target_state_multi_party_shifts():
    t = target_state(3, 1, (0, 1, 2), parties=3)
    assert sorted(x.labels for x in t.terms) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    spec = ProtocolSpec.balanced(
        3, 3, shifts=(0, 1, 2), theta=THETA, alpha=ALPHA,
        phase_indices=(1, 0, 0),
    )
    report = generate(spec)
    assert overlap_sq(report.final_state, t) == pytest.approx(1.0, abs=1e-10)


def test_swapping_parties_maps_shift_to_complement():
    for n in (3, 4, 5):
        for k in range(1, n):
            for m in range(n):
                target = target_state(n, m, k)
                swapped = HybridState(
                    RegisterLayout(party_dims=target.layout.party_dims[::-1]),
                    tuple(Term(t.amp, t.labels[::-1]) for t in target.terms),
                )
                partner = target_state(n, m, (n - k) % n)
                assert overlap_sq(swapped, partner) == pytest.approx(1.0, abs=1e-10)


def test_phase_pattern_detection():
    for n in (2, 3, 5):
        for m in range(n):
            assert coeff_phase_index(phased_coeffs(n, m)) == m
            rotated = tuple(c * cmath.exp(0.3j) for c in phased_coeffs(n, m))
            assert coeff_phase_index(rotated) == m
    assert coeff_phase_index((0.8, 0.6)) is None
    assert coeff_phase_index(balanced_coeffs(4)) == 0


def test_protocol_spec_validation():
    ok = dict(
        n=3, parties=2, shifts=(0, 1),
        coeffs=(balanced_coeffs(3), balanced_coeffs(3)),
        theta=THETA, alpha=ALPHA,
    )
    ProtocolSpec(**ok)
    with pytest.raises(ValueError, match="first party"):
        ProtocolSpec(**{**ok, "shifts": (1, 0)})
    with pytest.raises(ValueError, match="unit norm"):
        ProtocolSpec(**{**ok, "coeffs": ((1.0, 1.0, 0.0), balanced_coeffs(3))})
    with pytest.raises(ValueError, match="theta"):
        ProtocolSpec(**{**ok, "theta": 0.0})
    with pytest.raises(ValueError, match=r"\[0, n\)"):
        ProtocolSpec(**{**ok, "shifts": (0, 3)})
    with pytest.raises(ValueError, match=">= 2"):
        ProtocolSpec(**{**ok, "n": 1, "coeffs": ((1.0,), (1.0,))})
    for bad in (
        {"theta": float("nan")},
        {"theta": float("inf")},
        {"alpha": float("nan")},
        {"alpha": complex(500.0, float("-inf"))},
    ):
        with pytest.raises(ValueError, match="finite"):
            ProtocolSpec(**{**ok, **bad})
    # alpha = 0 with theta = 0 is allowed (nothing couples)
    ProtocolSpec(**{**ok, "theta": 0.0, "alpha": 0.0})


def test_per_stage_outcomes_have_no_qubus_residue():
    spec = ProtocolSpec.balanced(4, 2, shifts=(0, 2), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    for outcome in report.per_stage:
        assert outcome.heralded_state.layout.qubus_count == 0
    assert report.error_prob_total == pytest.approx(
        1.0 - (1.0 - report.per_stage[0].error_prob)
        * (1.0 - report.per_stage[1].error_prob),
        rel=1e-12,
    )
