import cmath
import math
import random
import sys

import numpy as np
import pytest

from qubus_forge.analysis import SweepGrid, run_sweep
from qubus_forge.elements import (
    apply_fourier_lomi,
    apply_pbs,
    apply_su2,
    pol_flip,
    prep_rotation,
)
from qubus_forge.heralding import DetectorModel, feedforward_outcomes, herald_vacuum
from qubus_forge.protocols import (
    ProtocolSpec,
    _pre_herald_state,
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
    ALPHA_MAX,
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


def _count_calls(monkeypatch, names):
    """Wrap each named function of ``qubus_forge.state`` or
    ``qubus_forge.protocols`` with a call counter, in every qubus_forge
    module that binds it."""
    import qubus_forge.protocols
    import qubus_forge.state

    counts = dict.fromkeys(names, 0)
    for name in names:
        home = qubus_forge.state
        if not hasattr(home, name):
            home = qubus_forge.protocols
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qubus_forge") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_generate_work_counts_are_near_linear(monkeypatch):
    # The grouping and the norm must stay near-linear in the term count:
    # an O(T K) scan over branch classes, or self-pairs sent through the
    # overlap kernel, shows here as a call count, whatever the machine.
    # n: (most qubus_close calls, most _pair_weight calls, canonicalize calls)
    expected = {3: (None, None, 12), 32: (4000, 1100, 99), 48: (9000, 2500, 147)}
    for n, (close_max, pair_max, canonicalize_calls) in expected.items():
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        with monkeypatch.context() as mp:
            counts = _count_calls(mp, ("qubus_close", "_pair_weight", "canonicalize"))
            generate(spec)
        assert counts["canonicalize"] == canonicalize_calls, (n, counts)
        if close_max is not None:
            assert counts["qubus_close"] <= close_max, (n, counts)
            assert counts["_pair_weight"] <= pair_max, (n, counts)


def test_run_sweep_work_counts_do_not_grow_with_eta(monkeypatch):
    # The stage state does not depend on eta: a sweep prepares the ancilla
    # once per grid (its cascade canonicalizes 2n times) and simulates each
    # of the 50 (alpha, theta) pairs once (one canonicalize, in the herald),
    # however many etas score it.
    alphas = tuple(50.0 + 45.0 * i for i in range(10))
    thetas = (0.001, 0.003, 0.01, 0.03, 0.1)
    for n in (3, 5):
        for etas in ((0.8,), (0.5, 0.7, 0.9, 1.0)):
            grid = SweepGrid(alphas, thetas, etas, n)
            with monkeypatch.context() as mp:
                counts = _count_calls(
                    mp, ("canonicalize", "prepare_single_photon_qudit")
                )
                run_sweep(grid)
            assert counts == {
                "canonicalize": 2 * n + 50,
                "prepare_single_photon_qudit": 1,
            }, (n, etas, counts)


def _count_validations(monkeypatch):
    """Count the field checks of every public Term and HybridState built."""
    counts = {"Term": 0, "HybridState": 0}
    for cls in (Term, HybridState):
        def counted(self, _name=cls.__name__, _original=cls.__post_init__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_states_are_validated_once_at_the_public_boundary(monkeypatch):
    # Public constructors validate; the library's own operations build from
    # states that are already valid and do not check them again.  A generate
    # validates only the preparation's input photon (one term, one state) and
    # the n-term target; a sweep only the input photon of its one preparation.
    for n in (3, 32, 48):
        spec = ProtocolSpec.balanced(n, 2, shifts=(0, 1), theta=THETA, alpha=ALPHA)
        with monkeypatch.context() as mp:
            counts = _count_validations(mp)
            generate(spec)
        assert counts["Term"] <= n + 1, (n, counts)
        assert counts["HybridState"] <= 2, (n, counts)
    alphas = tuple(50.0 + 45.0 * i for i in range(10))
    thetas = (0.001, 0.003, 0.01, 0.03, 0.1)
    for etas in ((0.8,), (0.5, 0.7, 0.9, 1.0)):
        grid = SweepGrid(alphas, thetas, etas, 3)
        with monkeypatch.context() as mp:
            counts = _count_validations(mp)
            run_sweep(grid)
        assert counts["Term"] <= 1, (etas, counts)
        assert counts["HybridState"] <= 1, (etas, counts)


def _protocol_layers(spec):
    """Every state generate builds on the way to its result, in order."""
    state = prepare_single_photon_qudit(spec.n)
    yield state
    for party in range(spec.parties):
        pre, beam = _pre_herald_state(
            state, spec.coeffs[party], spec.shifts[party], spec.theta, spec.alpha
        )
        yield pre
        yield herald_vacuum(pre, beam, spec.detector).heralded_state
        state = entangle_stage(state, spec, party).heralded_state
        yield state
    fourier = apply_fourier_lomi(state)
    yield fourier
    yield from feedforward_outcomes(fourier, 0)
    yield generate(spec).final_state


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
            detector=DetectorModel.on_off(rng.uniform(0.5, 1.0)),
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
