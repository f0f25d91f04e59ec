import cmath
import dataclasses
import functools
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import random
import re
import sys
import types
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubus_forge
from qubus_forge.analysis import (
    SweepGrid,
    error_prob_closed_form,
    run_sweep,
    sweep_point,
)
from qubus_forge.cli import main as cli_main
from qubus_forge.elements import (
    apply_fourier_lomi,
    apply_pbs,
    apply_su2,
    pol_flip,
    prep_rotation,
)
from qubus_forge.heralding import (
    BranchRecord,
    DetectorModel,
    FeedforwardError,
    HeraldOutcome,
    feedforward_outcomes,
    herald_vacuum,
    measure_ancilla_and_feedforward,
)
from qubus_forge.protocols import (
    COEFF_NORM_TOL,
    ProtocolSpec,
    _attach_party,
    _couple,
    _erased,
    _phase_pattern,
    _prepared,
    _run_stage,
    _spec_target,
    entangle_stage,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.state import (
    ALPHA_MAX,
    N_MAX,
    PARTIES_MAX,
    POL_V,
    HybridState,
    RegisterLayout,
    Term,
    _logaddexp_reduce,
    canonicalize,
    inner_product,
    overlap_sq,
    state_norm_sq,
)

THETA = 0.01
ALPHA = 500.0

# How far a heralded run's fidelity_vs_target may sit from 1.  Amplitude
# errors of the final state and of the target move the fidelity only at
# second order (~1e-31 for the final state's 3.5 ulps); what is left is the
# rounding of the overlap's three sums of n terms and their quotient,
# within 3 (n + 2) u, u = 2^-53, by the recursive-summation bound: 1.7e-14
# at n = 48, the widest spec checked.  The worst measured is 2.0e-15, over the
# report digest's 154 specs.
FIDELITY_TOL = 2e-14


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
    assert len(state.terms) == n
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


def test_prepare_shares_one_state_per_n():
    # the memo hands back one object per n, equal to a cascade built afresh,
    # behind a public name that stays a plain function
    for n in (3, 5, 12):
        _prepared.cache_clear()
        shared = prepare_single_photon_qudit(n)
        assert prepare_single_photon_qudit(n) is shared
        _prepared.cache_clear()
        fresh = prepare_single_photon_qudit(n)
        assert fresh is not shared and fresh == shared
        # <s|s> on the shared object takes the `a is b` shortcut of
        # state._inner; it must give the bits of two distinct equal states
        same, apart = inner_product(shared, shared), inner_product(shared, fresh)
        assert (same.real.hex(), same.imag.hex()) == (apart.real.hex(), apart.imag.hex())
    assert not hasattr(qubus_forge.prepare_single_photon_qudit, "cache_clear")


def test_prepare_rejects_bad_dimensions_after_a_cached_one():
    prepare_single_photon_qudit(3)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        prepare_single_photon_qudit(0)
    with pytest.raises(ValueError, match=re.escape(f"dimension n must be <= {N_MAX}")):
        prepare_single_photon_qudit(N_MAX + 1)
    for n in (3.0, "3"):
        with pytest.raises(TypeError):
            prepare_single_photon_qudit(n)
    # a bool dimension is its int: the layout holds 1, not True
    layout = prepare_single_photon_qudit(True).layout
    assert repr(layout) == repr(RegisterLayout(ancilla_modes=1))
    assert type(layout.ancilla_modes) is int


def test_stage_one_heralds_party_register_correlation():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = tuple(raw / np.linalg.norm(raw))
    outcome = _run_stage(
        prepare_single_photon_qudit(3), a, 0, THETA, ALPHA,
        DetectorModel(),
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
            DetectorModel(),
        ).heralded_state
        outcome = _run_stage(
            state, tuple(b), k, THETA, ALPHA, DetectorModel()
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
    # a blind detector misses every failure: the failed stage's error
    # probability is exactly 1, and so is the total
    blind = generate(dataclasses.replace(spec, detector=DetectorModel(0.0)))
    assert blind.per_stage[1].error_prob == 1.0
    assert blind.error_prob_total == pytest.approx(1.0, abs=1e-15)
    assert blind.error_prob_total_log == pytest.approx(0.0, abs=1e-15)


def test_failed_stage_report_is_pinned():
    # sha256 of the whole repr: the empty state's layout, every stage's
    # branch table and the error totals of a run that stops at stage 1
    a = (1.0 + 0j, 0j, 0j)
    b = (0j, 0j, 1.0 + 0j)
    two = ProtocolSpec(
        n=3, parties=2, shifts=(0, 1), coeffs=(a, b), theta=THETA, alpha=ALPHA
    )
    three = ProtocolSpec(
        n=3, parties=3, shifts=(0, 1, 2), coeffs=(a, b, phased_coeffs(3, 1)),
        theta=THETA, alpha=ALPHA, detector=DetectorModel(0.9),
    )
    digests = [hashlib.sha256(repr(generate(s)).encode()).hexdigest() for s in (two, three)]
    assert digests == [
        "76f0041ef5a4cd2b1b8ee26d17f806e9ad9a23c4e45252e361d33077bc960c09",
        "d7960130d6384b28cdb865a3aa2e4e255750de1d5e83bfa1a41fc08834f99724",
    ]


def test_generate_unbalanced_inputs_have_a_target():
    # the target is the spec's closed form: A_j = a_j b_{j+1} is 0.48 at
    # j = 1 and 0 at j = 0 and 2, whose zero-amplitude terms stay in the
    # target and do not move the fidelity
    a = (0.8 + 0j, 0.6 + 0j, 0j)
    b = (0.6 + 0j, 0j, 0.8 + 0j)
    spec = ProtocolSpec(
        n=3, parties=2, shifts=(0, 1), coeffs=(a, b), theta=THETA, alpha=ALPHA
    )
    report = generate(spec)
    assert abs(report.fidelity_vs_target - 1.0) <= FIDELITY_TOL
    assert _spec_target(spec).amps == (0j, 1 + 0j, 0j)
    # stage 1 heralds with 1/3; stage 2 with sum_j |a_j b_{j+1}|^2 = 0.2304
    assert report.success_prob == pytest.approx(0.2304 / 3.0, rel=1e-10)


@st.composite
def _arbitrary_spec_inputs(draw):
    """(n, coefficient vectors, shifts): n <= 6, 2-4 parties, complex
    vectors with at most one zero entry each, the first shift 0."""
    n = draw(st.integers(2, 6))
    parties = draw(st.integers(2, 4))
    entry = st.builds(cmath.rect, st.floats(0.05, 1.0), st.floats(-math.pi, math.pi))
    coeffs = []
    for _ in range(parties):
        vec = draw(st.lists(entry, min_size=n, max_size=n))
        zero = draw(st.none() | st.integers(0, n - 1))
        if zero is not None:
            vec[zero] = 0j
        norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
        coeffs.append(tuple(c / norm for c in vec))
    shifts = (0,) + tuple(draw(st.integers(0, n - 1)) for _ in range(parties - 1))
    return n, tuple(coeffs), shifts


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_arbitrary_spec_inputs())
def test_generate_matches_the_coefficient_product_oracle(inputs):
    # Independent of the circuit: the heralded state of any coefficient
    # vectors c_i and shifts k_i is prop. to sum_j A_j |(j + k_i) mod n>_i
    # with A_j = prod_i c_i[(j + k_i) mod n], heralded with probability
    # (1/n) sum_j |A_j|^2.
    n, coeffs, shifts = inputs
    amps = [
        math.prod(c[(j + k) % n] for c, k in zip(coeffs, shifts)) for j in range(n)
    ]
    weight = sum(abs(a) ** 2 for a in amps) / n
    spec = ProtocolSpec(
        n=n, parties=len(shifts), shifts=shifts, coeffs=coeffs, theta=THETA, alpha=ALPHA
    )
    report = generate(spec)
    assert report.success_prob == pytest.approx(weight, abs=1e-12)
    if report.failed_stage is not None:
        assert weight < 1e-12
        assert report.fidelity_vs_target is None
        return
    assert abs(report.fidelity_vs_target - 1.0) <= FIDELITY_TOL
    expected = HybridState(
        RegisterLayout(party_dims=(n,) * len(shifts)),
        tuple(
            Term(a, tuple((j + k) % n for k in shifts)) for j, a in enumerate(amps) if a
        ),
    )
    assert overlap_sq(report.final_state, expected) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_holds_at_the_party_bound_with_unbalanced_coefficients():
    # n = 2 with PARTIES_MAX parties in pairs whose entry sizes are (s, t)
    # and (t, s), s from 0.3 to 0.95 and t = sqrt(1 - s^2), at random
    # phases: both A_j have size prod (s t), 4e-191 here, whose square a
    # plain product rounds to 0.0
    rng = random.Random("party bound")
    coeffs = []
    for _ in range(PARTIES_MAX // 2):
        s = rng.uniform(0.3, 0.95)
        t = math.sqrt(1.0 - s * s)
        for sizes in ((s, t), (t, s)):
            coeffs.append(tuple(cmath.rect(r, rng.uniform(-math.pi, math.pi)) for r in sizes))
    spec = ProtocolSpec(2, PARTIES_MAX, (0,) * PARTIES_MAX, coeffs, THETA, ALPHA)
    report = generate(spec)
    assert report.failed_stage is None and report.success_prob == 0.0
    assert abs(report.fidelity_vs_target - 1.0) <= FIDELITY_TOL
    assert [abs(a) for a in _spec_target(spec).amps] == pytest.approx([1.0, 1.0], rel=1e-12)


def test_the_report_digest_specs_reach_their_targets():
    # every one of the digest's 154 generate specs heralds, and ends within
    # FIDELITY_TOL of its closed form: the 37 with general coefficients as
    # well as the phase patterns
    for build in _report_digest_specs():
        report = generate(build())
        assert abs(report.fidelity_vs_target - 1.0) <= FIDELITY_TOL, build


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


def test_target_state_phase_index_must_be_an_integer():
    # m = 1.5 would give the pattern e^{i pi j}, none of the n basis states
    with pytest.raises(TypeError, match="integer"):
        target_state(3, 1.5, 0)
    assert target_state(3, np.int64(1), 0) == target_state(3, 1, 0)


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


def test_protocol_spec_unit_norm_tolerance_edge():
    # a squared norm off by half the tolerance passes, off by twice fails
    # a NaN entry makes the squared norm NaN, which no tolerance accepts
    for factor, accepted in ((0.5, True), (-0.5, True), (2.0, False), (-2.0, False),
                             (math.nan, False)):
        vec = (math.sqrt(1.0 + factor * COEFF_NORM_TOL), 0.0, 0.0)
        check = nullcontext() if accepted else pytest.raises(ValueError, match="unit norm")
        with check:
            ProtocolSpec(
                n=3, parties=2, shifts=(0, 1), coeffs=(phased_coeffs(3, 0), vec),
                theta=THETA, alpha=ALPHA,
            )


def test_protocol_spec_counts_must_be_integers():
    # a float count is rejected when the spec is built, before any stage
    # runs; an integer-like count becomes an int
    coeffs = (phased_coeffs(3, 0), phased_coeffs(3, 0))
    for n, parties in ((3.0, 2), (3, 2.0)):
        with pytest.raises(TypeError, match="integer"):
            ProtocolSpec(n, parties, (0, 1), coeffs, THETA, ALPHA)
    spec = ProtocolSpec(np.int64(3), np.int64(2), (0, 1), coeffs, THETA, ALPHA)
    assert (type(spec.n), type(spec.parties)) == (int, int)
    assert spec == ProtocolSpec(3, 2, (0, 1), coeffs, THETA, ALPHA)


def test_balanced_spec_and_target_counts_must_be_integers():
    # the integer rule of ProtocolSpec, before a count builds a default
    # tuple such as (0,) * parties
    for build in (
        lambda: ProtocolSpec.balanced(3, parties=3.0, shifts=(0, 1, 2)),
        lambda: ProtocolSpec.balanced(3.0, parties=2, shifts=(0, 1)),
        lambda: target_state(3, 0, 1, 2.5),
        lambda: target_state(3, 0, (0, 1, 2), 3.0),
    ):
        with pytest.raises(TypeError, match="integer"):
            build()
    spec = ProtocolSpec.balanced(np.int64(3), np.int64(3), (0, 1, 2), THETA, ALPHA)
    assert spec == ProtocolSpec.balanced(3, 3, (0, 1, 2), THETA, ALPHA)
    assert target_state(3, 0, 1, np.int64(3)) == target_state(3, 0, 1, 3)


def test_phased_coeffs_phase_index_must_be_an_integer():
    # m = 2.5 is no pattern tau^{j m}, and NaN gives NaN coefficients
    for m in (2.5, math.nan):
        with pytest.raises(TypeError, match="integer"):
            phased_coeffs(3, m)
    with pytest.raises(TypeError, match="integer"):
        ProtocolSpec.balanced(3, 2, (0, 1), THETA, ALPHA, phase_indices=(0.5, 0))
    assert phased_coeffs(3, np.int64(2)) == phased_coeffs(3, 2)


def test_phased_coeffs_rejects_integers_beyond_float_range():
    # n and m reach float arithmetic, so an integer float() cannot hold is a
    # ValueError that names its argument, not a bare OverflowError
    for args, name in (((10**400, 0), "n"), ((3, 10**400), "m"), ((3, -(10**400)), "m")):
        with pytest.raises(ValueError, match=f"^{name} is beyond float range$"):
            phased_coeffs(*args)


def test_phased_coeffs_rejects_a_phase_beyond_float_range():
    # m within float range whose phase 2 pi j m / n is not: the vector would
    # hold NaN, so m is rejected by name, before the memo is read or filled
    _phase_pattern.cache_clear()
    for m in (10**308, -(10**308), 2**1023):
        with pytest.raises(ValueError, match=r"^m = [-\d.e+]+ puts the phase 2 pi j m / n"):
            phased_coeffs(3, m)
    assert _phase_pattern.cache_info().currsize == 0
    with pytest.raises(ValueError, match="^m = "):
        ProtocolSpec.balanced(3, 2, (0, 1), THETA, ALPHA, phase_indices=(10**308, 0))
    # the largest phase is 2 pi (n - 1) m: a finite one gives a finite vector
    for n, m in ((3, 10**307), (2, 2**1021), (1, 10**308)):
        coeffs = phased_coeffs(n, m)
        assert len(coeffs) == n and all(map(cmath.isfinite, coeffs)), (n, m)


def test_phased_coeffs_memo_is_read_after_the_checks():
    # one shared vector per (n, m); (3.0, 1) and (3, 1) are equal keys, so
    # the checks run before the memo: a cached vector answers no float n
    _phase_pattern.cache_clear()
    shared = phased_coeffs(3, 1)
    assert phased_coeffs(3, 1) is shared
    assert phased_coeffs(np.int64(3), np.int64(1)) is shared
    scale = 1.0 / math.sqrt(3)
    assert shared == tuple(scale * cmath.exp(2j * math.pi * j * 1 / 3) for j in range(3))
    for n, m in ((3.0, 1), (3, 1.0)):
        with pytest.raises(TypeError, match="integer"):
            phased_coeffs(n, m)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        phased_coeffs(0, 1)
    assert _phase_pattern.cache_info().currsize == 1
    assert not hasattr(qubus_forge.phased_coeffs, "cache_clear")


def test_phase_pattern_memo_is_bounded():
    # 256 vectors; one of N_MAX entries (40 bytes each with its tuple slot)
    # keeps the memo under the 11 MB its docstring states
    vec = _phase_pattern.__wrapped__(N_MAX, 1)
    vec_bytes = sys.getsizeof(vec) + sum(map(sys.getsizeof, vec))
    assert _phase_pattern.cache_info().maxsize == 256
    assert _phase_pattern.cache_info().maxsize * vec_bytes < 11e6


def test_protocol_spec_validation():
    ok = dict(
        n=3, parties=2, shifts=(0, 1),
        coeffs=(phased_coeffs(3, 0), phased_coeffs(3, 0)),
        theta=THETA, alpha=ALPHA,
    )
    ProtocolSpec(**ok)
    with pytest.raises(ValueError, match="first party"):
        ProtocolSpec(**{**ok, "shifts": (1, 0)})
    with pytest.raises(ValueError, match="unit norm"):
        ProtocolSpec(**{**ok, "coeffs": ((1.0, 1.0, 0.0), phased_coeffs(3, 0))})
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
    # a failure branch left at vacuum on the herald beam would be heralded
    # as success: alpha = 0, d theta = 2 pi (n = 3, theta = pi, d = 2), or
    # alpha theta below MERGE_TOL
    for bad in (
        {"theta": 0.0, "alpha": 0.0},
        {"alpha": 0.0},
        {"theta": math.pi},
        {"alpha": 1.0, "theta": 1e-13},
    ):
        with pytest.raises(ValueError, match="theta"):
            ProtocolSpec(**{**ok, **bad})
    with pytest.raises(TypeError):  # a shift is never truncated to an int
        ProtocolSpec.balanced(3, 2, shifts=(0, 1.9))
    # the detector is checked after the numeric fields
    for build in (
        lambda det: ProtocolSpec(**{**ok, "detector": det}),
        lambda det: ProtocolSpec.balanced(3, detector=det),
    ):
        for bad in (0.7, "on_off", {"efficiency": 0.7}):
            with pytest.raises(TypeError, match="detector"):
                build(bad)
    with pytest.raises(ValueError, match="theta"):
        ProtocolSpec(**{**ok, "theta": 0.0, "detector": 0.7})
    # brighter beams leave a vacuum-branch residual above MERGE_TOL's floor
    ProtocolSpec(**{**ok, "alpha": -1j * ALPHA_MAX})
    for alpha in (ALPHA_MAX * (1 + 1e-15), 1e4j, 1e160):
        with pytest.raises(ValueError, match="alpha"):
            ProtocolSpec(**{**ok, "alpha": alpha})


def test_generate_heralds_at_alpha_bound():
    # at |alpha| = ALPHA_MAX the offset-0 herald beam still merges with
    # vacuum, so every stage heralds with probability 1/n
    for n in range(2, 9):
        for parties in (2, 3) if n <= 4 else (2,):
            shifts = (0,) + tuple(i * (n - 1) % n for i in range(1, parties))
            for theta in (0.003, 0.05):
                for alpha in (ALPHA_MAX, -ALPHA_MAX, 1j * ALPHA_MAX, -1j * ALPHA_MAX):
                    spec = ProtocolSpec.balanced(
                        n, parties, shifts=shifts, theta=theta, alpha=alpha
                    )
                    report = generate(spec)
                    assert report.failed_stage is None, (n, parties, theta, alpha)
                    assert report.success_prob == pytest.approx(
                        n ** -parties, rel=1e-12
                    ), (n, parties, theta, alpha)


def test_every_protocol_entry_stops_at_n_max():
    # n = 64 (the largest n the scaling checks run) and N_MAX itself pass;
    # above N_MAX, and at an n no loop over the offsets d < n could finish,
    # each protocol, sweep and preparation entry, and each builder of
    # coefficients or targets, rejects n before it builds anything of size n
    for n in (64, N_MAX):
        assert ProtocolSpec.balanced(n).n == n
        assert SweepGrid((1.0,), (0.01,), (1.0,), n).n == n
        assert len(phased_coeffs(n, 1)) == n
        assert len(target_state(n, 0, 1).amps) == n
    assert len(prepare_single_photon_qudit(64).terms) == 64
    message = f"dimension n must be <= {N_MAX}"
    for n in (N_MAX + 1, 10**400):
        for build in (
            lambda: ProtocolSpec.balanced(n),
            lambda: ProtocolSpec(n, 2, (0, 0), ((1.0,), (1.0,)), THETA, ALPHA),
            lambda: SweepGrid((1.0,), (0.01,), (1.0,), n),
            lambda: sweep_point(1.0, 0.01, 1.0, n),
            lambda: prepare_single_photon_qudit(n),
            lambda: target_state(n, 0, 1),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()
    # phased_coeffs names an n beyond float range first (its own test)
    for n in (N_MAX + 1, 10**300):
        with pytest.raises(ValueError, match=re.escape(message)):
            phased_coeffs(n, 1)
    # the closed form folds its n - 1 terms in constant memory and takes any n
    n = 4 * N_MAX
    assert 0.0 <= error_prob_closed_form(1.0, 0.01, 1.0, n) <= 1.0


def test_every_protocol_entry_stops_at_parties_max():
    # PARTIES_MAX itself builds; above it, and at a count whose shifts or
    # coefficient vectors would not fit in memory, each entry rejects the
    # count before it builds anything of that size
    spec = ProtocolSpec.balanced(2, PARTIES_MAX)
    assert (spec.parties, len(spec.shifts), len(spec.coeffs)) == (PARTIES_MAX,) * 3
    assert target_state(2, 0, 0, PARTIES_MAX).layout.num_parties == PARTIES_MAX
    message = f"party count must be <= {PARTIES_MAX}"
    for parties in (PARTIES_MAX + 1, 10**9):
        for build in (
            lambda: ProtocolSpec.balanced(2, parties),
            lambda: ProtocolSpec(2, parties, (0, 0), ((1.0, 0.0), (1.0, 0.0)), THETA, ALPHA),
            lambda: target_state(2, 0, 0, parties),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()


def test_per_stage_outcomes_have_no_qubus_residue():
    spec = ProtocolSpec.balanced(4, 2, shifts=(0, 2), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    for outcome in report.per_stage:
        assert outcome.heralded_state.layout.qubus_count == 0
    # 1 - (1 - p0)(1 - p1) without its cancellation
    p0, p1 = (outcome.error_prob for outcome in report.per_stage)
    assert report.error_prob_total == pytest.approx(p0 + p1 - p0 * p1, rel=1e-12)
    assert report.error_prob_total_log == pytest.approx(
        math.log(p0 + p1 - p0 * p1), rel=1e-12
    )


def _count_calls(monkeypatch, names):
    """Wrap each named function of ``qubus_forge.state``,
    ``qubus_forge.protocols`` or ``qubus_forge.analysis`` with a call
    counter, in every qubus_forge module that binds it."""
    import qubus_forge.analysis
    import qubus_forge.protocols
    import qubus_forge.state

    counts = dict.fromkeys(names, 0)
    for name in names:
        home = next(mod for mod in (qubus_forge.state, qubus_forge.protocols,
                                    qubus_forge.analysis) if hasattr(mod, name))
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qubus_forge") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _count_columns_built(monkeypatch):
    """Count what the state constructor ``state._columns`` is handed that is
    new, each column once: ``rows``, the terms of every new label column,
    and ``cells``, the entries of every new amplitude, label and beam
    column.  A column passed on unchanged from an input state counts once."""
    import qubus_forge.state

    original = qubus_forge.state._columns
    seen = {}  # id -> column, kept alive so that no id is reused
    counts = {"rows": 0, "cells": 0}

    def counted(layout, amps, labels, beams):
        for column in (amps, labels, *beams):
            if id(column) not in seen:
                seen[id(column)] = column
                counts["cells"] += len(column)
                if column is labels:
                    counts["rows"] += len(labels)
        return original(layout, amps, labels, beams)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qubus_forge") and getattr(mod, "_columns", None) is original:
            monkeypatch.setattr(mod, "_columns", counted)
    return counts


class _ExpCounter:
    """Stands in for the ``cmath`` module and counts its ``exp`` calls."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, z):
        self.exp_calls += 1
        return cmath.exp(z)

    def __getattr__(self, name):
        return getattr(cmath, name)


def _count_overlap_exps(monkeypatch):
    """Count the ``cmath.exp`` calls made from ``qubus_forge.state``.  The
    only one there is the overlap factor of a cross pair in ``state._inner``,
    so this counts the pairs sent through the overlap kernel."""
    import qubus_forge.state

    counter = _ExpCounter()
    monkeypatch.setattr(qubus_forge.state, "cmath", counter)
    return counter


def test_generate_work_counts_are_near_linear(monkeypatch):
    # The grouping and the norm must stay near-linear in the term count:
    # an O(T K) scan over branch classes, a merge that searches again for a
    # beam tuple it has already placed, or self-pairs sent through the
    # overlap kernel, shows here as a call count, whatever the machine.
    # A stage that rebuilds its n^2 terms once more than it needs to shows
    # in the rows built, and one more pass over a single column of them in
    # the cells built: each cap is less than one n^2 column above the count.
    # canonicalize merges only runs of equal labels, and every state it gets
    # here has distinct labels, so the merge rule runs once per herald (once
    # per label it ran 5,216 and 11,664 times); the herald takes its norm and
    # every class weight from one _inner pass (a pass per class made 194 and
    # 290 passes).
    # The preparation is memoized per n: a cold call runs its cascade (2n
    # canonicalize calls), every later call of that n gets it for free.
    # The feedforward canonicalizes once and takes every outcome's norm from
    # one _inner pass, whatever n (one of each per outcome made 12/6, 99/35
    # and 147/51 canonicalize calls and 10, 68 and 100 _inner calls).
    # A cross pair's overlap kernel runs inline in _inner and calls cmath.exp
    # once, so the pairs sent through it are counted by those calls.
    # The erasure is memoized on its input, so a repeated spec runs only the
    # two heralds' canonicalize calls (Fourier and feedforward ran one each).
    # n: (most qubus_close calls, most overlap-kernel pairs, canonicalize
    #     calls, most rows built, most cells built, _merge_groups calls,
    #     _inner calls, canonicalize calls with a warm preparation memo,
    #     canonicalize calls with a warm erasure memo too)
    expected = {
        3: (None, None, 10, None, None, None, None, 4, 2),
        32: (350, 1100, 68, 10600, 36500, 2, 37, 4, 2),
        48: (500, 2500, 100, 23600, 81000, 2, 53, 4, 2),
    }
    for n, (close_max, pair_max, canonicalize_calls, rows_max, cells_max, merges,
            inners, warm_calls, hit_calls) in expected.items():
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        _prepared.cache_clear()
        _erased.clear()
        with monkeypatch.context() as mp:
            counts = _count_calls(
                mp, ("qubus_close", "canonicalize", "_merge_groups", "_inner")
            )
            exps = _count_overlap_exps(mp)
            built = _count_columns_built(mp)
            generate(spec)
        assert counts["canonicalize"] == canonicalize_calls, (n, counts)
        if close_max is not None:
            assert counts["qubus_close"] <= close_max, (n, counts)
            assert exps.exp_calls <= pair_max, (n, exps.exp_calls)
            assert built["rows"] <= rows_max, (n, built)
            assert built["cells"] <= cells_max, (n, built)
            assert counts["_merge_groups"] == merges, (n, counts)
            assert counts["_inner"] == inners, (n, counts)
        _erased.clear()
        for calls in (warm_calls, hit_calls, hit_calls):
            with monkeypatch.context() as mp:
                warm = _count_calls(mp, ("canonicalize",))
                generate(spec)
            assert warm["canonicalize"] == calls, (n, warm)


def _attach_in_term_order(state, coeffs, alpha):
    """Reference for _attach_party: every term of ``state`` in turn, and
    for each every m with a nonzero coefficient, each giving label m after
    the parties' labels and the beam pair (alpha, alpha)."""
    layout = state.layout
    cut = layout.num_parties
    new_layout = RegisterLayout(
        layout.party_dims + (len(coeffs),), layout.ancilla_modes, layout.prep_modes,
        layout.qubus_count + 2,
    )
    return HybridState(new_layout, [
        Term(t.amp * c, t.labels[:cut] + (m,) + t.labels[cut:], t.qubus + (alpha, alpha))
        for t in state.terms
        for m, c in enumerate(coeffs)
        if c != 0
    ])


def test_attached_stage_states_are_canonical_as_built():
    # Every stage of 2- and 3-party specs attaches its party to a state in
    # label order and couples it in label order, so canonicalize returns
    # both as they are.  The attached state has the reference's terms.
    rng = random.Random("attach order")
    for _ in range(30):
        n, parties = rng.randint(2, 8), rng.randint(2, 3)
        coeffs = tuple(
            phased_coeffs(n, rng.randrange(n)) if rng.random() < 0.5
            else _random_unit_vector(rng, n)
            for _ in range(parties)
        )
        shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
        spec = ProtocolSpec(n, parties, shifts, coeffs, THETA, complex(ALPHA, rng.uniform(-9, 9)))
        state = prepare_single_photon_qudit(n)
        for party in range(parties):
            attached = _attach_party(state, spec.coeffs[party], spec.alpha)
            coupled, _ = _couple(attached, spec.shifts[party], spec.theta)
            assert canonicalize(attached) is attached
            assert canonicalize(coupled) is coupled
            assert repr(canonicalize(_attach_in_term_order(state, spec.coeffs[party], spec.alpha))) \
                == repr(attached)
            state = entangle_stage(state, spec, party).heralded_state


def test_attach_keeps_the_canonical_state_of_any_input():
    # Hand-built inputs whose runs of equal leading labels hold several
    # terms, in and out of label order, with repeated labels whose beams the
    # merge rule groups by their order, and a zero coefficient: the attached
    # state canonicalizes to the reference's canonical state, and an input
    # in label order gives a state in label order.
    rng = random.Random("attach runs")
    near = (0.3 + 0.1j, 0.3 + 0.1j + 0.5e-12, 0.3 + 0.1j + 1.5e-12, -0.2j)
    for layout in (
        RegisterLayout(ancilla_modes=3),  # the first stage: every head is empty
        RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=1),
        RegisterLayout(party_dims=(2, 3), ancilla_modes=3, qubus_count=1),
    ):
        dims = layout.label_dims()
        every_label = sorted(itertools.product(*map(range, dims)))
        for trial in range(60):
            if trial % 3 == 0:  # in label order, heads repeated
                labels = sorted(rng.sample(every_label, rng.randint(1, len(every_label))))
            else:  # any order, labels repeated
                labels = [rng.choice(every_label) for _ in range(rng.randint(1, 9))]
            state = HybridState(layout, [
                Term(complex(rng.gauss(0, 1), rng.gauss(0, 1)), lab,
                     tuple(rng.choice(near) for _ in range(layout.qubus_count)))
                for lab in labels
            ])
            coeffs = list(_random_unit_vector(rng, 3))
            if rng.random() < 0.3:
                coeffs[rng.randrange(3)] = 0j
            attached = _attach_party(state, coeffs, 2.0 - 1j)
            reference = _attach_in_term_order(state, coeffs, 2.0 - 1j)
            assert repr(canonicalize(attached)) == repr(canonicalize(reference))
            assert sorted(zip(attached.labels, attached.amps), key=repr) == \
                sorted(zip(reference.labels, reference.amps), key=repr)
            if trial % 3 == 0:
                assert canonicalize(attached) is attached


def test_protocol_states_reach_canonicalize_in_canonical_form(monkeypatch):
    # Over the report digest's generate specs, with the erasure memo cleared
    # and the preparation warm, every state generate canonicalizes is
    # canonical already, so canonicalize returns it as it is: each stage's
    # coupled state (in its herald), the Fourier output and the corrected
    # feedforward state.  A change that loses the label order fails here
    # rather than only costing the full walk.
    import qubus_forge.elements
    import qubus_forge.heralding

    seen = []

    def recording(state):
        out = canonicalize(state)
        seen.append((sys._getframe(1).f_code.co_name, out is state))
        return out

    monkeypatch.setattr(qubus_forge.elements, "canonicalize", recording)
    monkeypatch.setattr(qubus_forge.heralding, "canonicalize", recording)
    for build in _report_digest_specs():
        spec = build()
        prepare_single_photon_qudit(spec.n)
        _erased.clear()
        seen.clear()
        report = generate(spec)
        assert report.failed_stage is None
        assert seen == [("_classify_branches", True)] * spec.parties + [
            ("apply_fourier_lomi", True), ("feedforward_outcomes", True)
        ], spec


def test_protocol_traffic_merges_distinct_tuples_and_pairs_inner_by_index(monkeypatch):
    # Over the report digest's generate specs, with both memos cleared, and
    # a 10 x 5 x 4 sweep grid at n = 3 and at n = 5, every _merge_groups
    # call is handed terms of pairwise-distinct beam values, and every
    # _inner call pairs its terms index by index.  _merge_groups and _inner keep their
    # general rules for hand-built states; this pins the protocol traffic
    # that the herald's distinct values and the equal label columns shape.
    import qubus_forge.state as state_module

    merges, inners, reduced = [], [], []

    def merge_groups(beams, index):
        given = [tuple(col[i] for col in beams) for i in index]
        merges.append(len(set(given)) == len(given))
        return original_merge(beams, index)

    def inner(*args, **kwargs):
        inners.append(None)
        return original_inner(*args, **kwargs)

    def reduce(*args):
        reduced.append(None)
        return functools.reduce(*args)

    original_merge, original_inner = state_module._merge_groups, state_module._inner
    for name, mod in list(sys.modules.items()):
        if name.startswith("qubus_forge"):
            for attr, original, wrapper in (
                ("_merge_groups", original_merge, merge_groups), ("_inner", original_inner, inner)
            ):
                if getattr(mod, attr, None) is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    # the index-pairing path is the one that sums with functools.reduce
    monkeypatch.setattr(state_module, "functools", types.SimpleNamespace(reduce=reduce))
    _run_protocol_traffic()
    assert merges and all(merges), merges.count(False)
    assert inners and len(reduced) == len(inners), (len(reduced), len(inners))


def _report_digest_specs():
    """The builders of the report digest's 154 generate specs, in order."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    loader = importlib.util.spec_from_file_location("report_digest", path)
    report_digest = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(report_digest)
    builds = list(report_digest.generate_specs())
    assert len(builds) == 154
    return builds


def _run_protocol_traffic():
    """The report digest's 154 generate specs, with both memos cleared, and
    a seeded 10 x 5 x 4 sweep grid at n = 3 and at n = 5."""
    for build in _report_digest_specs():
        spec = build()
        _prepared.cache_clear()
        _erased.clear()
        assert generate(spec).failed_stage is None
    rng = random.Random("traffic grids")
    for n in (3, 5):
        alphas = tuple(sorted(rng.uniform(50.0, 500.0) for _ in range(10)))
        thetas = tuple(sorted(10.0 ** rng.uniform(-3.0, -1.0) for _ in range(5)))
        etas = tuple(sorted(rng.uniform(0.5, 1.0) for _ in range(4)))
        _prepared.cache_clear()
        assert len(run_sweep(SweepGrid(alphas, thetas, etas, n))) == 200


def test_protocol_traffic_passes_the_distinct_label_proof(monkeypatch):
    # On the same traffic, every state a herald or the feedforward
    # canonicalizes is returned as it is, so every herald, feedforward-norm
    # and outcome-check _inner call carries the proof that no label repeats
    # and no n^2 set(labels) pass runs.  Only the target overlap, over n
    # terms, keeps the check.
    import qubus_forge.heralding

    original = qubus_forge.heralding._inner
    calls = []

    def inner(a, b, classes=None, distinct=False):
        calls.append((sys._getframe(1).f_code.co_name, distinct))
        return original(a, b, classes, distinct)

    monkeypatch.setattr(qubus_forge.heralding, "_inner", inner)
    _run_protocol_traffic()
    callers = {caller for caller, _ in calls}
    assert callers == {
        "_classify_branches", "feedforward_outcomes", "measure_ancilla_and_feedforward"
    }
    assert all(distinct for _, distinct in calls), calls.count(("_classify_branches", False))
    # a herald per stage and per sweep pair, a norm and n - 1 checks per erasure
    heralds = sum(caller == "_classify_branches" for caller, _ in calls)
    norms = sum(caller == "feedforward_outcomes" for caller, _ in calls)
    assert norms == 154 and heralds > 154 * 2 + 2 * 50


def test_generate_derives_each_heralded_state_once(monkeypatch):
    # A herald builds its state, the vacuum-class rows scaled by
    # 1/sqrt(P_s) without the consumed beam, in one derivation, and the
    # stage removes the spectator beam in one more.  Building the rows, the
    # scaled copy and the beam removal apart took two more per stage: 38
    # and 25 derivations at n = 3, 183 and 54 at n = 32.  A warm erasure
    # memo skips the erasure's derivations.  Every state that the heralds,
    # the Fourier step and the feedforward canonicalize is canonical
    # already, as are most states of the preparation cascade, and
    # canonicalize returns such a state with no derivation: without that
    # the counts were (34, 21, 14) at n = 3 and (179, 50, 14) at n = 32.
    # n: (derivations with cold memos, with a warm preparation memo, with a
    #     warm erasure memo too)
    expected = {3: (26, 17, 12), 32: (142, 46, 12)}
    for n, (cold, warm, hit) in expected.items():
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        _prepared.cache_clear()
        for clear_erasures, derivations in ((True, cold), (True, warm), (False, hit)):
            if clear_erasures:
                _erased.clear()
            with monkeypatch.context() as mp:
                counts = _count_calls(mp, ("_derive",))
                generate(spec)
            assert counts["_derive"] == derivations, (n, counts)


def _random_unit_vector(rng, n):
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
    return tuple(c / norm for c in vec)


def test_erasure_memo_never_holds_more_label_cells_than_its_budget(monkeypatch):
    # Distinct families (n 4..8, 2-3 parties, random coefficients) until the
    # memo has taken in twice its budget.  After each call the memo holds
    # at most its budget, and its count is the labels its entries hold; a
    # miss runs the public Fourier and feedforward functions once each.
    rng = random.Random(26)
    _erased.clear()
    taken_in = 0
    with monkeypatch.context() as mp:
        runs = _count_calls(mp, ("apply_fourier_lomi", "measure_ancilla_and_feedforward"))
        while taken_in <= 2 * _erased.budget:
            n, parties = rng.randint(4, 8), rng.randint(2, 3)
            coeffs = tuple(_random_unit_vector(rng, n) for _ in range(parties))
            shifts = (0,) + tuple(rng.randrange(n) for _ in range(parties - 1))
            generate(ProtocolSpec(n, parties, shifts, coeffs, THETA, ALPHA))
            taken_in += n * (2 * parties + 1)  # its input and output labels
            # an entry's input has its output's terms and one label more each
            for cells, state in _erased.entries.values():
                assert cells == len(state.labels) * (2 * len(state.labels[0]) + 1)
            assert _erased.cells == sum(cells for cells, _ in _erased.entries.values())
            assert _erased.cells <= _erased.budget
    assert _erased.hits == 0 and runs["apply_fourier_lomi"] == _erased.misses
    assert runs["measure_ancilla_and_feedforward"] == _erased.misses
    assert _erased.cells > _erased.budget - 8 * 7  # full, to within one entry
    # the least recently used entry goes first, and an entry larger than the
    # whole budget is not kept and evicts nothing: at n = 3 an entry takes
    # 15 cells with two parties and 33 with five
    _erased.clear()
    monkeypatch.setattr(_erased, "budget", 30)
    specs = [ProtocolSpec.balanced(3, 2, shifts=(0, k), theta=THETA, alpha=ALPHA) for k in range(3)]
    reports = [generate(specs[k]) for k in (0, 1, 0, 2)]  # the hit leaves shift 1 oldest
    kept = [state for _, state in _erased.entries.values()]
    assert kept == [reports[0].final_state, reports[3].final_state]
    generate(ProtocolSpec.balanced(3, 5, theta=THETA, alpha=ALPHA))
    assert [state for _, state in _erased.entries.values()] == kept
    assert _erased.cells == 30
    # generate gains no knob for its memo (its parameters are pinned in
    # test_public_api.py)
    assert not hasattr(generate, "cache_clear")


def test_erasure_memo_counts_label_cells_from_the_layout():
    # the layout fixes every label's length, so the cells of a state are
    # its term count times the layout's label count
    from qubus_forge.protocols import _cells

    states = [HybridState(RegisterLayout(party_dims=(2, 3), prep_modes=2), ())]
    for n, shifts in ((2, (0, 1)), (3, (0, 2, 1)), (5, (0, 3))):
        spec = ProtocolSpec.balanced(n, len(shifts), shifts=shifts, theta=THETA, alpha=ALPHA)
        states += _protocol_layers(spec)
    rng = random.Random("cells")
    for _ in range(30):
        layout = RegisterLayout(
            party_dims=tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
            ancilla_modes=rng.randint(0, 3), prep_modes=rng.randint(0, 3),
            qubus_count=rng.randint(0, 2),
        )
        dims = layout.label_dims()
        states.append(HybridState(layout, [
            Term(complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                 tuple(rng.randrange(d) for d in dims),
                 tuple(complex(rng.gauss(0, 1), 0) for _ in range(layout.qubus_count)))
            for _ in range(rng.randint(0, 6))
        ]))
    for state in states:
        assert _cells(state) == sum(map(len, state.labels))


def test_erasure_memo_keeps_signed_zeros_apart():
    # -0.0 == 0.0, so these two states are equal; their erasures differ in
    # the sign of a zero, and each is kept under its own key
    layout = RegisterLayout(party_dims=(2, 2), ancilla_modes=2)
    states = [
        HybridState(layout, (Term(complex(-0.6, zero), (0, 0, 0)), Term(0.8, (1, 1, 1))))
        for zero in (0.0, -0.0)
    ]
    assert states[0] == states[1]
    cold = [
        repr(measure_ancilla_and_feedforward(apply_fourier_lomi(s), correction_party=0))
        for s in states
    ]
    assert cold[0] != cold[1]
    _erased.clear()
    for _ in range(2):
        assert [repr(_erased(s)) for s in states] == cold
    assert len(_erased.entries) == 2
    assert (_erased.hits, _erased.misses) == (2, 2)


def test_a_failed_erasure_is_not_kept(monkeypatch):
    # correction phases of the wrong sign make the outcomes disagree: the
    # spec raises on every call, and the memo stores nothing
    def wrong_row(n, j):
        return tuple(cmath.exp(2j * math.pi * j * k0 / n) for k0 in range(n))

    monkeypatch.setattr(qubus_forge.heralding, "_correction_row", wrong_row)
    spec = ProtocolSpec.balanced(3, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
    _erased.clear()
    for _ in range(3):
        with pytest.raises(FeedforwardError, match="outcomes disagree"):
            generate(spec)
    assert not _erased.entries and _erased.cells == 0
    assert (_erased.hits, _erased.misses) == (0, 3)


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="counts CPython's cyclic collections"
)
def test_wide_generate_starts_almost_no_garbage_collection(monkeypatch):
    # CPython starts a collection once 700 more tracked containers have been
    # allocated than freed.  The states' columns are tuples, of which those
    # under 20 items mostly come from free lists and are not counted, so
    # the n^2-term passes allocate few counted objects.  A list per term in
    # _inner's label index (one per label of the state) started 30 and 60
    # collections over ten calls at n = 32 and 40, and 110 at n = 48.  At
    # n = 48 a stage's 2,304 label tuples overflow the free lists: a herald
    # that also built a 1-tuple per term of its beam column started 30
    # collections; grouping the column's distinct values instead, it starts
    # 10.  The erasure memo keeps nothing here, so every call runs the
    # Fourier and feedforward passes.
    # n: most collections started over ten warm calls
    caps = {32: 1, 40: 1, 48: 15}
    starts = []
    monkeypatch.setattr(_erased, "budget", 0)
    _erased.clear()

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        for n, cap in caps.items():
            spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
            gc.collect()
            generate(spec)
            starts.clear()
            for _ in range(10):
                generate(spec)
            assert len(starts) <= cap, (n, starts)
            assert _erased.hits == 0 and not _erased.entries
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def test_stage_builds_its_outcome_without_dataclasses_replace(monkeypatch):
    # _run_stage builds the stage's HeraldOutcome from the herald's, with
    # the spectator beam removed, and copies no outcome through
    # dataclasses.replace
    replaced = []
    original = dataclasses.replace

    def recorded(obj, /, **changes):
        replaced.append(type(obj))
        return original(obj, **changes)

    monkeypatch.setattr(dataclasses, "replace", recorded)
    spec = ProtocolSpec.balanced(3, 3, shifts=(0, 1, 2), theta=THETA, alpha=ALPHA)
    report = generate(spec)
    outcome = _run_stage(prepare_single_photon_qudit(3), spec.coeffs[0], 0, THETA, ALPHA,
                         spec.detector)
    assert HeraldOutcome not in replaced
    assert outcome.heralded_state.layout.qubus_count == 0
    assert outcome == report.per_stage[0]


def _count_constructions(monkeypatch, classes):
    """Count the instances of each class built, by name."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counted(self, *args, _name=cls.__name__, _original=cls.__init__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_run_sweep_work_counts_do_not_grow_with_eta(monkeypatch):
    # The stage state does not depend on eta: a sweep prepares the ancilla
    # once per grid (its cascade canonicalizes 2n times while the memo is
    # cold, and not at all once it is warm) and simulates each of the 50
    # (alpha, theta) pairs once (one canonicalize and one class merge, in
    # the herald), however many etas score it.  An eta costs only the folds
    # over the failure classes: no branch table, no herald outcome and no
    # heralded state is built.  The party and the qubus pair
    # are attached once per alpha, and the closed form's eta-independent
    # terms computed once per theta.
    alphas = tuple(50.0 + 45.0 * i for i in range(10))
    thetas = (0.001, 0.003, 0.01, 0.03, 0.1)
    for n in (3, 5):
        per_eta_count = []
        for etas in ((0.8,), (0.5, 0.7, 0.9, 1.0)):
            grid = SweepGrid(alphas, thetas, etas, n)
            _prepared.cache_clear()
            for canonicalize_calls in (2 * n + 50, 50):  # cold memo, then warm
                with monkeypatch.context() as mp:
                    counts = _count_calls(
                        mp,
                        ("canonicalize", "_merge_groups", "prepare_single_photon_qudit",
                         "_without_beam", "_attach_party", "_closed_form_terms"),
                    )
                    built = _count_constructions(mp, (BranchRecord, HeraldOutcome))
                    run_sweep(grid)
                assert counts["canonicalize"] == canonicalize_calls, (n, etas, counts)
                assert counts["prepare_single_photon_qudit"] == 1, (n, etas, counts)
                assert counts["_attach_party"] == len(alphas), (n, etas, counts)
                assert counts["_closed_form_terms"] == len(thetas), (n, etas, counts)
                assert counts["_without_beam"] == 0, (n, etas, counts)
                assert built == {"BranchRecord": 0, "HeraldOutcome": 0}, (n, etas, built)
                per_eta_count.append(counts)
        assert per_eta_count[:2] == per_eta_count[2:], (n, per_eta_count)


def _count_validations(monkeypatch):
    """Count the field checks of every public Term and HybridState built."""
    counts = {"Term": 0, "HybridState": 0}
    for cls, method in ((Term, "__post_init__"), (HybridState, "__init__")):
        def counted(self, *args, _name=cls.__name__, _original=getattr(cls, method)):
            counts[_name] += 1
            _original(self, *args)

        monkeypatch.setattr(cls, method, counted)
    return counts


def test_states_are_validated_once_at_the_public_boundary(monkeypatch):
    # Public constructors validate; the library builds its fresh states (the
    # preparation's input photon and the target) from columns valid by
    # construction, and every other state from one that is already valid, so
    # neither a generate nor a sweep validates a Term or a HybridState.
    for n in (3, 32, 48):
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        _prepared.cache_clear()  # so the input photon is built under the count
        with monkeypatch.context() as mp:
            counts = _count_validations(mp)
            generate(spec)
        assert counts == {"Term": 0, "HybridState": 0}, (n, counts)
    alphas = tuple(50.0 + 45.0 * i for i in range(10))
    thetas = (0.001, 0.003, 0.01, 0.03, 0.1)
    for etas in ((0.8,), (0.5, 0.7, 0.9, 1.0)):
        grid = SweepGrid(alphas, thetas, etas, 3)
        _prepared.cache_clear()
        with monkeypatch.context() as mp:
            counts = _count_validations(mp)
            run_sweep(grid)
        assert counts == {"Term": 0, "HybridState": 0}, (etas, counts)
    with monkeypatch.context() as mp:
        counts = _count_validations(mp)
        HybridState(RegisterLayout(party_dims=(2,)), [Term(1.0, (0,))])
    assert counts == {"Term": 1, "HybridState": 1}, counts


def _protocol_layers(spec):
    """Every state generate builds on the way to its result, in order."""
    state = prepare_single_photon_qudit(spec.n)
    yield state
    for party in range(spec.parties):
        pre, beam = _couple(
            _attach_party(state, spec.coeffs[party], spec.alpha), spec.shifts[party], spec.theta
        )
        yield pre
        yield herald_vacuum(pre, beam, spec.detector).heralded_state
        state = entangle_stage(state, spec, party).heralded_state
        yield state
    fourier = apply_fourier_lomi(state)
    yield fourier
    yield from feedforward_outcomes(fourier, 0)
    yield generate(spec).final_state
    yield _spec_target(spec)


def test_internal_states_are_ones_the_public_constructors_accept():
    # The private builders skip the field checks; every state they make must
    # still pass them unchanged and hold only built-in numbers, so that no
    # numpy scalar reaches a repr or a serialized state.
    rng = random.Random("internal-states")
    for _ in range(40):
        n = rng.randint(2, 9)
        parties = rng.randint(2, 3)
        spec = ProtocolSpec.balanced(
            n,
            parties,
            shifts=(0,) + tuple(rng.randrange(n) for _ in range(parties - 1)),
            theta=rng.uniform(0.005, 0.05),
            alpha=rng.uniform(100.0, 500.0),
            detector=DetectorModel(rng.uniform(0.5, 1.0)),
            phase_indices=tuple(rng.randrange(n) for _ in range(parties)),
        )
        for state in _protocol_layers(spec):
            rebuilt = HybridState(
                state.layout,
                tuple(Term(t.amp, t.labels, t.qubus) for t in state.terms),
            )
            assert rebuilt == state, spec
            for t in state.terms:
                assert type(t.amp) is complex, (spec, t)
                assert all(type(label) is int for label in t.labels), (spec, t)
                assert all(type(q) is complex for q in t.qubus), (spec, t)
    # a numpy dimension still gives built-in labels
    numpy_target = target_state(np.int64(3), 1, np.int64(2))
    assert numpy_target == target_state(3, 1, 2)
    assert all(type(label) is int for labels in numpy_target.labels for label in labels)


def _vacuum_class_of_weight_100():
    """A normalized two-term state on one label, amplitudes +-a, herald beams
    0 and 0.1: the cross term is nearly -2 a^2, so a^2 is about 100."""
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    unit = HybridState(layout, (Term(1.0, (0,), (0j,)), Term(-1.0, (0,), (0.1 + 0j,))))
    a = 1.0 / math.sqrt(state_norm_sq(unit))
    return HybridState(layout, (Term(a, (0,), (0j,)), Term(-a, (0,), (0.1 + 0j,))))


def _cli_generate_with_a_silent_second_stage():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["generate", "--n", "3", "--shifts", "0,1",
                         "--coeffs", "1,0,0,0,0,0;0,0,1,0,0,0"])
    stages = json.loads(out.getvalue())["per_stage"]
    return code, [stage["error_prob_log10"] for stage in stages]


_BARE = HybridState(RegisterLayout(party_dims=(2,)), (Term(1.0, (0,)),))
_SPEC3 = ProtocolSpec.balanced(3, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: prep_rotation(3, 3), "cascade step 3 out of range for dimension 3"),
        (lambda: HeraldOutcome(_BARE, 1.5, 0.0, -math.inf, ()),
         "success probability out of [0, 1]"),
        (lambda: HeraldOutcome(_BARE, 0.5, 0.6, math.log(0.6), ()),
         "error probability exceeds failure weight"),
        (lambda: herald_vacuum(_vacuum_class_of_weight_100(), 0, DetectorModel()),
         "success probability out of [0, 1]"),
        (lambda: ProtocolSpec.balanced(3, 2, shifts=(0, 1, 2)), "need one shift per party"),
        (lambda: ProtocolSpec(3, 2, (0, 1), (phased_coeffs(3, 0),), THETA, ALPHA),
         "need one coefficient vector per party"),
        (lambda: entangle_stage(target_state(3, 0, 0), _SPEC3, 0),
         "stage needs a single-photon spatial register"),
        (lambda: entangle_stage(
            prepare_single_photon_qudit(3), ProtocolSpec.balanced(4, 2, shifts=(0, 1)), 0),
         "coefficient vector length must match the register size"),
        (lambda: entangle_stage(prepare_single_photon_qudit(3), _SPEC3, 2),
         "party index 2 out of range"),
        (lambda: RegisterLayout(party_dims=(2,)).prep_spatial_slot,
         "layout has no preparation register"),
        (lambda: HybridState(RegisterLayout(party_dims=(2, 2)), (Term(1.0, (0,)),)),
         "term has 1 labels, layout declares 2"),
        (lambda: inner_product(_BARE, HybridState(_BARE.layout, ())), "empty state"),
        # np.logaddexp.reduce([0.0, nan]) is nan as well
        (lambda: math.isnan(_logaddexp_reduce([0.0, math.nan])), True),
        # the second stage has no failure class, so no error log
        (_cli_generate_with_a_silent_second_stage, (0, [-5.905757039652567, None])),
    ],
    ids=["prep_rotation-step", "herald_outcome-success", "herald_outcome-error",
         "herald-vacuum_weight", "balanced-shifts",
         "spec-coeff_count", "stage-no_register", "stage-register_size",
         "stage-party_index", "layout-prep_slot", "state-label_count",
         "inner_product-empty", "logaddexp-nan", "cli-silent_stage"],
)
def test_branches_no_digest_reaches(call, expected):
    # each of these branches ran in neither tier-1 nor either digest
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == expected
    else:
        assert call() == expected
