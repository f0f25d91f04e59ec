"""Acceptance suite.

One test per acceptance criterion, each pinned to its stated tolerance and
printing a single PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import cmath
import math

import numpy as np
import pytest

from qubus_forge.analysis import (
    _closed_form_fold,
    _closed_form_terms,
    mean_branch_photons,
    reduced_entropy,
    verify_basis,
)
from qubus_forge.elements import (
    apply_bs_5050,
    apply_fourier_lomi,
    apply_pbs,
    apply_qubus_phase,
    apply_su2,
    apply_xpm,
    pol_flip,
    prep_rotation,
)
from qubus_forge.heralding import DetectorModel, feedforward_outcomes
from qubus_forge.protocols import (
    ProtocolSpec,
    _run_stage,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.state import (
    HybridState,
    RegisterLayout,
    Term,
    coherent_overlap,
    overlap_sq,
    state_norm_sq,
)

ALPHA = 500.0
THETA = 0.01


def test_criterion_1_success_probabilities():
    # 1/9 for the asymmetric qutrit pair
    report = generate(
        ProtocolSpec.balanced(3, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
    )
    assert abs(report.success_prob - 1.0 / 9.0) <= 1e-12
    # 1/n^2 across dimensions
    for n in range(2, 9):
        report = generate(
            ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        )
        assert abs(report.success_prob - n**-2) <= 1e-12, n
    # 1/n^M for three parties
    three = generate(
        ProtocolSpec.balanced(3, 3, shifts=(0, 0, 0), theta=THETA, alpha=ALPHA)
    )
    assert abs(three.success_prob - 1.0 / 27.0) <= 1e-12
    print("ACCEPTANCE 1 (success probabilities 1/n^M): PASS")


def test_criterion_2_stage_error_probability_closed_form():
    # simulated silent-failure probability of the first qutrit stage equals
    # (4/9) e^{-2 a^2 sin^2(t/2)} + (2/9) e^{-2 a^2 sin^2 t} to 1e-10 relative;
    # compared in log space because the grid corners underflow doubles
    ancilla = prepare_single_photon_qudit(3)
    for alpha in (1.0, 10.0, 100.0, 500.0):
        for theta in (0.001, 0.01, 0.1):
            outcome = _run_stage(
                ancilla, phased_coeffs(3, 0), 0, theta, alpha,
                DetectorModel(),
            )
            literal = np.logaddexp(
                math.log(4.0 / 9.0) - 2.0 * alpha**2 * math.sin(theta / 2.0) ** 2,
                math.log(2.0 / 9.0) - 2.0 * alpha**2 * math.sin(theta) ** 2,
            )
            rel = abs(math.expm1(outcome.error_prob_log - literal))
            assert rel <= 1e-10, (alpha, theta, rel)
    print("ACCEPTANCE 2 (stage error probability vs closed form): PASS")


def test_criterion_3_feasibility_numbers():
    mean_k1 = mean_branch_photons(ALPHA, THETA, 1)
    mean_k2 = mean_branch_photons(ALPHA, THETA, 2)
    assert abs(mean_k1 - 13.0) / 13.0 <= 0.05  # "about 13"
    assert abs(mean_k2 - 50.0) / 50.0 <= 0.05  # "about 50"
    # identity against the branch definition |alpha (1 - e^{ik t})/sqrt(2)|^2
    for d, mean in ((1, mean_k1), (2, mean_k2)):
        direct = abs(ALPHA * (1.0 - cmath.exp(1j * d * THETA)) / math.sqrt(2.0)) ** 2
        assert abs(mean - direct) <= 1e-12 * direct

    ancilla = prepare_single_photon_qudit(3)
    ideal = _run_stage(ancilla, phased_coeffs(3, 0), 0, THETA, ALPHA,
                       DetectorModel())
    assert ideal.error_prob == pytest.approx(1.66e-6, rel=5e-3)
    assert ideal.error_prob < 1e-5  # P_E << 1
    assert abs(math.expm1(ideal.error_prob_log
                          - _closed_form_fold(ALPHA**2, _closed_form_terms(THETA, 3),
                                              1.0))) <= 1e-10

    common = _run_stage(ancilla, phased_coeffs(3, 0), 0, THETA, ALPHA,
                        DetectorModel(0.7))
    assert common.error_prob < 1e-4
    print(
        "ACCEPTANCE 3 (feasibility: mean photons "
        f"{mean_k1:.5f}/{mean_k2:.4f}, P_E(ideal) {ideal.error_prob:.3e}, "
        f"P_E(eta=0.7) {common.error_prob:.3e}): PASS"
    )


def test_criterion_4_output_state_certification():
    for n in (2, 3, 4, 5):
        for m in range(n):
            for k in range(n):
                spec = ProtocolSpec.balanced(
                    n, 2, shifts=(0, k), theta=THETA, alpha=ALPHA,
                    phase_indices=(m, 0),
                )
                report = generate(spec)
                target = target_state(n, m, k)
                assert overlap_sq(report.final_state, target) >= 1.0 - 1e-9, (n, m, k)
                assert report.fidelity_vs_target >= 1.0 - 1e-9, (n, m, k)
                err = abs(reduced_entropy(report.final_state) - math.log2(n))
                assert err <= 1e-9, (n, m, k)
    print("ACCEPTANCE 4 (generated states certified against targets): PASS")


def test_criterion_5_basis_completeness():
    for n in range(2, 9):
        report = verify_basis(n)
        assert report.passed, report.violations
        assert report.states == n * n
        assert report.max_abs_inner < 1e-12
    qutrit = verify_basis(3)
    assert qutrit.symmetric_count == 3
    assert qutrit.asymmetric_count == 6
    print("ACCEPTANCE 5 (maximally entangled bases, n = 2..8): PASS")


def test_criterion_6_stage_two_success_formula():
    rng = np.random.default_rng(20260810)
    for trial in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        first = _run_stage(
            prepare_single_photon_qudit(n), tuple(a), 0, THETA, ALPHA,
            DetectorModel(),
        )
        second = _run_stage(first.heralded_state, tuple(b), k, THETA, ALPHA,
                            DetectorModel())
        expected = sum(abs(a[j] * b[(j + k) % n]) ** 2 for j in range(n))
        assert abs(second.success_prob - expected) <= 1e-10 * max(1.0, expected), (
            trial, n, k,
        )
    print("ACCEPTANCE 6 (stage-2 success = sum_j |a_j b_{j+k}|^2, 100 draws): PASS")


def _element_test_state():
    rng = np.random.default_rng(99)
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=3, prep_modes=2,
                            qubus_count=2)
    terms = tuple(
        Term(
            complex(*rng.normal(size=2)) / 6.0,
            (int(rng.integers(3)), int(rng.integers(3)),
             int(rng.integers(2)), int(rng.integers(2))),
            (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))),
        )
        for _ in range(12)
    )
    return HybridState(layout, terms)


def test_criterion_7_property_suites():
    # (a) every optical element preserves the squared norm to 1e-12
    state = _element_test_state()
    before = state_norm_sq(state)
    elements = [
        lambda s: apply_xpm(s, 0, 1, 1, THETA),
        lambda s: apply_qubus_phase(s, 0, 1.234),
        lambda s: apply_bs_5050(s, (0, 1)),
        lambda s: apply_su2(s, prep_rotation(5, 2)),
        lambda s: apply_su2(s, pol_flip()),
        lambda s: apply_pbs(s, 1, 0),
        lambda s: apply_fourier_lomi(s),
    ]
    for op in elements:
        assert abs(state_norm_sq(op(state)) - before) <= 1e-12

    # (b) the nine (j, s) phase totals of the first qutrit stage
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=1)
    multiples = []
    for j in range(3):
        for s in range(3):
            probe = HybridState(layout, (Term(1.0, (j, s), (1.0,)),))
            out = apply_xpm(probe, 0, 0, 0, THETA)
            multiples.append(round(cmath.phase(out.terms[0].qubus[0]) / THETA, 9))
    assert sorted(multiples) == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0]

    # (c) feedforward outcome-independence across all n detection outcomes
    for n in (2, 3, 5):
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1 % n), theta=THETA,
                                     alpha=ALPHA, phase_indices=(1 % n, 0))
        state = prepare_single_photon_qudit(n)
        for party in range(2):
            state = _run_stage(state, spec.coeffs[party], spec.shifts[party],
                               THETA, ALPHA, spec.detector).heralded_state
        outcomes = feedforward_outcomes(apply_fourier_lomi(state), 0)
        assert len(outcomes) == n
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(overlap_sq(outcomes[i], outcomes[j]) - 1.0) <= 1e-10

    # (d) coherent overlap closed form vs the Fock-series oracle, |amp| <= 4
    def fock_series(a, b, nterms=120):
        z = complex(a).conjugate() * complex(b)
        term = 1.0 + 0j
        acc = 1.0 + 0j
        for m in range(1, nterms):
            term *= z / m
            acc += term
        return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2)) * acc

    rng = np.random.default_rng(4)
    for _ in range(200):
        a = complex(*rng.uniform(-4 / math.sqrt(2), 4 / math.sqrt(2), size=2))
        b = complex(*rng.uniform(-4 / math.sqrt(2), 4 / math.sqrt(2), size=2))
        closed = cmath.exp(coherent_overlap(a, b))
        assert abs(closed - fock_series(a, b)) <= 1e-10
    print("ACCEPTANCE 7 (element/erasure/overlap property suites): PASS")


def test_criterion_8_single_photon_qudit_preparation():
    for n in range(1, 17):
        state = prepare_single_photon_qudit(n)
        assert len(state.terms) == n
        expected = 1.0 / math.sqrt(n)
        for t in state.terms:
            assert abs(t.amp - expected) <= 1e-12, n
    print("ACCEPTANCE 8 (cascade amplitudes 1/sqrt(n), n = 1..16): PASS")
