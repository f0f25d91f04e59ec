import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qubus_forge.analysis import (
    CLOSED_FORM_N_MAX,
    SweepGrid,
    _closed_form_fold,
    _closed_form_terms,
    error_prob_closed_form,
    mean_branch_photons,
    reduced_entropy,
    run_sweep,
    sweep_point,
    verify_basis,
)
from qubus_forge.elements import apply_qubus_phase, apply_xpm, prep_rotation
from qubus_forge.heralding import DetectorModel, _classify_branches, _failure_log
from qubus_forge.protocols import (
    ProtocolSpec,
    _attach_party,
    _couple,
    _run_stage,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from qubus_forge.state import (
    ALPHA_MAX,
    MERGE_TOL,
    THETA_MAX,
    HybridState,
    RegisterLayout,
    Term,
    overlap_sq,
)


def closed_form_log(alpha, theta, eta, n):
    """Natural log of the closed form, as error_prob_closed_form folds it."""
    return _closed_form_fold(abs(alpha) ** 2, _closed_form_terms(theta, n), eta)


def qutrit_failure_log_literal(alpha, theta, eta=1.0):
    """Literal log-domain transcription of the balanced-qutrit failure sum."""
    return np.logaddexp(
        math.log(4.0 / 9.0) - 2.0 * eta * alpha**2 * math.sin(theta / 2.0) ** 2,
        math.log(2.0 / 9.0) - 2.0 * eta * alpha**2 * math.sin(theta) ** 2,
    )


def test_fidelity_basic_cases():
    psi = target_state(3, 0, 1)
    assert overlap_sq(psi, psi) == pytest.approx(1.0, abs=1e-12)
    assert overlap_sq(target_state(3, 0, 1), target_state(3, 1, 1)) == pytest.approx(
        0.0, abs=1e-12
    )
    report = generate(ProtocolSpec.balanced(3, 2, shifts=(0, 1)))
    assert overlap_sq(report.final_state, target_state(3, 0, 1)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_fidelity_is_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    layout = RegisterLayout(party_dims=(3, 3))
    for _ in range(10):
        def rand_state():
            terms = tuple(
                Term(complex(*rng.normal(size=2)),
                     (int(rng.integers(3)), int(rng.integers(3))))
                for _ in range(4)
            )
            return HybridState(layout, terms)
        a, b = rand_state(), rand_state()
        fab = overlap_sq(a, b)
        assert 0.0 <= fab <= 1.0 + 1e-12
        assert fab == pytest.approx(overlap_sq(b, a), abs=1e-12)


def test_fidelity_one_only_for_proportional_states():
    psi = target_state(4, 1, 2)
    scaled = HybridState(psi.layout, [Term(0.3j * t.amp, t.labels) for t in psi.terms])
    assert overlap_sq(psi, scaled) == pytest.approx(1.0, abs=1e-12)
    bumped = HybridState(
        psi.layout,
        (Term(psi.terms[0].amp * 1.2, psi.terms[0].labels),) + psi.terms[1:],
    )
    assert overlap_sq(psi, bumped) < 1.0 - 1e-4


def test_fidelity_layout_mismatch():
    with pytest.raises(ValueError, match="layout mismatch"):
        overlap_sq(target_state(3, 0, 1), target_state(4, 0, 1))


def test_reduced_entropy_product_state():
    layout = RegisterLayout(party_dims=(3, 3))
    product = HybridState(layout, (Term(1.0, (0, 1)),))
    assert reduced_entropy(product) == pytest.approx(0.0, abs=1e-12)


def test_reduced_entropy_bell_and_targets():
    bell = target_state(2, 0, 0)
    assert reduced_entropy(bell) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 3, 5):
        for m in range(n):
            for k in range(n):
                assert reduced_entropy(target_state(n, m, k)) == pytest.approx(
                    math.log2(n), abs=1e-10
                )


def test_reduced_entropy_rejects_wrong_shapes():
    three = target_state(3, 0, (0, 1, 1), parties=3)
    with pytest.raises(ValueError, match="two-party"):
        reduced_entropy(three)
    with_ancilla = HybridState(
        RegisterLayout(party_dims=(2, 2), ancilla_modes=2), (Term(1.0, (0, 0, 0)),)
    )
    with pytest.raises(ValueError, match="two-party"):
        reduced_entropy(with_ancilla)


def test_closed_form_matches_literal_transcription():
    for alpha in (0.5, 1.0, 10.0, 100.0, 500.0):
        for theta in (0.001, 0.01, 0.1):
            for eta in (0.5, 1.0):
                ours = closed_form_log(alpha, theta, eta, 3)
                assert ours == pytest.approx(qutrit_failure_log_literal(alpha, theta, eta), rel=1e-12)


def test_closed_form_degenerate_and_scaled_cases():
    assert error_prob_closed_form(0.0, 0.01, 1.0, 3) == pytest.approx(2.0 / 3.0)
    # eta rescales every exponent
    full = closed_form_log(500.0, 0.01, 1.0, 3)
    damped = closed_form_log(500.0, 0.01, 0.7, 3)
    assert damped > full
    assert error_prob_closed_form(500.0, 0.01, 0.7, 3) == pytest.approx(
        7.06e-5, rel=5e-3
    )
    with pytest.raises(ValueError):
        error_prob_closed_form(1.0, 0.01, 1.2, 3)
    with pytest.raises(ValueError):
        error_prob_closed_form(1.0, 0.01, 1.0, 1)


def test_closed_form_general_dimension_matches_simulator():
    # the n-dependent branch weights are a derived extension; pin them to the
    # circuit simulation instead of trusting the derivation
    for n in (2, 4, 5):
        for alpha, theta in ((2.0, 0.05), (30.0, 0.01)):
            outcome = _run_stage(
                prepare_single_photon_qudit(n), phased_coeffs(n, 0), 0,
                theta, alpha, DetectorModel(),
            )
            closed = closed_form_log(alpha, theta, 1.0, n)
            assert abs(math.expm1(outcome.error_prob_log - closed)) < 1e-10


def test_mean_branch_photons_identity():
    for alpha in (1.0, 500.0):
        for theta in (0.001, 0.1):
            for d in (1, 2, 3):
                direct = abs(alpha * (1 - np.exp(1j * d * theta)) / math.sqrt(2)) ** 2
                assert mean_branch_photons(alpha, theta, d) == pytest.approx(
                    direct, rel=1e-12
                )


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 0.01, 1.0, 3), "alpha must be finite"),
        ((complex(1.0, math.inf), 0.01, 1.0, 3), "alpha must be finite"),
        ((500.0, math.inf, 1.0, 3), "theta must be finite"),
        ((500.0, math.nan, 1.0, 3), "theta must be finite"),
        # finite theta whose largest phase (n - 1) theta / 2 overflows
        ((500.0, 1e308, 1.0, 3), "theta must be finite"),
        # 2 |alpha|^2 overflows; at theta = 0 it made the exponent NaN
        ((1e154, 0.0, 1.0, 3), "alpha = 1e\\+154 overflows"),
        ((1e200, 0.01, 1.0, 3), "alpha = 1e\\+200 overflows"),
        # an int n whose d theta could not be formed as a float
        ((1.0, 0.01, 1.0, 10**400), "n is beyond float range"),
    ],
)
def test_closed_form_rejects_non_finite_and_overflowing_inputs(args, message):
    with pytest.raises(ValueError, match=message):
        error_prob_closed_form(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 0.01, 1), "alpha must be finite"),
        ((math.inf, 0.01, 1), "alpha must be finite"),
        ((1.0, math.inf, 1), "theta must be finite"),
        ((1.0, math.inf, 0), "theta must be finite"),
        ((1.0, 1e308, 3), "theta must be finite"),
        ((1e200, 0.01, 1), "alpha = 1e\\+200 overflows"),
        ((1e154, 0.01, 1), "alpha = 1e\\+154 overflows"),
        ((1.0, 0.01, 10**400), "d is beyond float range"),
        ((1.0, 0.01, -(10**400)), "d is beyond float range"),
    ],
)
def test_mean_branch_photons_rejects_non_finite_and_overflowing_inputs(args, message):
    with pytest.raises(ValueError, match=message):
        mean_branch_photons(*args)


def test_closed_form_and_mean_photons_hold_at_the_largest_finite_inputs():
    # just inside the overflow edges both stay finite
    alpha = 1e153
    assert error_prob_closed_form(alpha, 0.0, 1.0, 3) == pytest.approx(2.0 / 3.0)
    assert error_prob_closed_form(alpha, 0.01, 1.0, 3) == 0.0
    assert math.isfinite(mean_branch_photons(alpha, 0.01, 1))
    assert mean_branch_photons(1.0, 1e307, 1) >= 0.0


# a spatial qutrit, one party and one beam: a state apply_xpm takes
_XPM_STATE = HybridState(
    RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=1), (Term(1.0, (0, 1), (1.0,)),)
)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ProtocolSpec.balanced(3, theta=10**400), "theta"),
        (lambda: ProtocolSpec.balanced(3, alpha=10**400), "alpha"),
        (lambda: SweepGrid((1.0,), (10**400,), (1.0,), 3), "theta"),
        (lambda: SweepGrid((10**400,), (0.01,), (1.0,), 3), "alpha"),
        (lambda: SweepGrid((1.0,), (0.01,), (10**400,), 3), "eta"),
        (lambda: sweep_point(1.0, 10**400, 1.0, 3), "theta"),
        (lambda: mean_branch_photons(1.0, 10**400, 1), "theta"),
        (lambda: mean_branch_photons(10**400, 0.01, 1), "alpha"),
        (lambda: error_prob_closed_form(1.0, 10**400, 1.0, 3), "theta"),
        (lambda: apply_xpm(_XPM_STATE, 0, 1, 0, 10**400), "theta"),
        (lambda: apply_qubus_phase(_XPM_STATE, 0, 10**400), "phi"),
        (lambda: prep_rotation(10**400, 0), "n"),
        (lambda: DetectorModel(10**400), "efficiency"),
    ],
    ids=["spec-theta", "spec-alpha", "grid-theta", "grid-alpha", "grid-eta", "sweep_point",
         "mean_photons-theta", "mean_photons-alpha", "closed_form", "xpm", "qubus_phase",
         "prep_rotation", "detector"],
)
def test_integers_beyond_float_range_are_rejected_by_name(call, name):
    # the last four raised a bare OverflowError: they took the int as it came
    # an int too large for a float raised a bare OverflowError
    with pytest.raises(ValueError, match=f"^{name} is beyond float range$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mean_branch_photons(1.0, 10**200, 10**200),
         "theta must be finite, and so must d theta / 2 up to d = 1.000e+200; got 1.000e+200"),
        (lambda: mean_branch_photons(10**200, 0.01, 1),
         "alpha = 1.000e+200 overflows the beam energy 2 |alpha|^2"),
        (lambda: error_prob_closed_form(1.0, 10**300, 1.0, 10**300),
         "theta must be finite, and so must d theta / 2 up to d = 1.000e+300; got 1.000e+300"),
    ],
    ids=["mean_photons-theta", "mean_photons-alpha", "closed_form-theta"],
)
def test_huge_integers_are_abbreviated_in_rejections(call, message):
    # each echoed a 200- or 300-digit integer in full (up to 663 characters)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert len(message) < 120


def test_closed_form_n_is_bounded_after_the_other_checks():
    # the fold's time grows with n: the bound is accepted and one more is not,
    # and 10**12, which would have run for hours, is rejected at once
    assert 0.0 < error_prob_closed_form(1.0, 0.01, 1.0, CLOSED_FORM_N_MAX) < 1.0
    for n in (CLOSED_FORM_N_MAX + 1, 10**12):
        with pytest.raises(ValueError, match=f"^dimension n must be <= {CLOSED_FORM_N_MAX} for"):
            error_prob_closed_form(1.0, 0.01, 1.0, n)


def test_closed_forms_and_qubus_phase_compute_with_the_coerced_values():
    # a Decimal or Fraction passed the coercer and then failed unnamed
    for exact in (Decimal("0.01"), Fraction(1, 100)):
        assert error_prob_closed_form(1.0, exact, 1.0, 3) == error_prob_closed_form(1.0, 0.01, 1.0, 3)
        assert error_prob_closed_form(1.0, 0.01, exact, 3) == error_prob_closed_form(1.0, 0.01, 0.01, 3)
        assert mean_branch_photons(exact, 0.01, 1) == mean_branch_photons(0.01, 0.01, 1)
        assert apply_qubus_phase(_XPM_STATE, 0, exact) == apply_qubus_phase(_XPM_STATE, 0, 0.01)


def test_closed_form_folds_in_constant_memory():
    import tracemalloc

    error_prob_closed_form(500.0, 0.01, 1.0, 5000)
    tracemalloc.start()
    try:
        error_prob_closed_form(500.0, 0.01, 1.0, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a tuple of the 4999 (log weight, sin^2) pairs alone takes ~0.5 MiB
    assert peak < 64 * 1024


def test_sweep_point_feasibility_numbers():
    row = sweep_point(500.0, 0.01, 1.0, 3)
    assert row.mean_photons_k1 == pytest.approx(12.49990, abs=1e-3)
    assert row.mean_photons_k2 == pytest.approx(49.99833, abs=1e-3)
    # "about 13 and 50"
    assert abs(row.mean_photons_k1 - 13.0) / 13.0 < 0.05
    assert abs(row.mean_photons_k2 - 50.0) / 50.0 < 0.05
    assert row.p_error_closed == pytest.approx(1.66e-6, rel=5e-3)
    assert row.p_error_simulated == pytest.approx(row.p_error_closed, rel=1e-10)


def test_sweep_point_log_columns_survive_underflow():
    row = sweep_point(500.0, 0.1, 1.0, 3)
    assert row.p_error_closed == 0.0  # underflows double precision
    assert row.p_error_simulated == 0.0
    assert math.isfinite(row.p_error_closed_log10)
    assert abs(
        math.expm1(
            (row.p_error_simulated_log10 - row.p_error_closed_log10) * math.log(10)
        )
    ) < 1e-10


def test_run_sweep_single_point_and_ordering():
    grid = SweepGrid((500.0,), (0.01,), (1.0,), 3)
    rows = run_sweep(grid)
    assert len(rows) == 1
    grid = SweepGrid((100.0, 500.0), (0.001, 0.01), (0.7, 1.0), 3)
    rows = run_sweep(grid)
    assert len(rows) == 8
    assert [(r.alpha, r.theta, r.eta) for r in rows] == [
        (a, t, e)
        for a in (100.0, 500.0)
        for t in (0.001, 0.01)
        for e in (0.7, 1.0)
    ]


def test_full_grid_sim_matches_closed_form_in_log_space():
    grid = SweepGrid((1.0, 10.0, 100.0, 500.0), (0.001, 0.01, 0.1), (1.0,), 3)
    for row in run_sweep(grid):
        delta = (row.p_error_simulated_log10 - row.p_error_closed_log10) * math.log(10)
        assert abs(math.expm1(delta)) <= 1e-10, (row.alpha, row.theta)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (0.01,), (1.0,), 3)
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.0,), (1.0,), 3)
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.01,), (1.5,), 3)
    with pytest.raises(ValueError):
        SweepGrid((-1.0,), (0.01,), (1.0,), 3)
    SweepGrid((ALPHA_MAX,), (0.01,), (1.0,), 3)
    for alpha in (ALPHA_MAX * (1 + 1e-15), 1e6, 1e160):
        with pytest.raises(ValueError, match="alpha"):
            SweepGrid((alpha,), (0.01,), (1.0,), 3)
    # a failure branch left at vacuum on the herald beam (alpha = 0, or
    # 2 theta = 2 pi at n = 3), and a NaN efficiency
    with pytest.raises(ValueError, match="theta"):
        SweepGrid((0.0,), (0.01,), (1.0,), 3)
    with pytest.raises(ValueError, match="theta"):
        SweepGrid((1.0,), (math.pi,), (1.0,), 3)
    with pytest.raises(ValueError, match="efficiency"):
        SweepGrid((1.0,), (0.01,), (float("nan"),), 3)


def test_sweep_point_rejects_bad_working_points():
    # the cases a grid rejects are rejected point by point too
    for args in ((1e6, 0.01, 1.0, 3), (0.0, 0.01, 1.0, 3), (1.0, math.pi, 1.0, 3)):
        with pytest.raises(ValueError):
            sweep_point(*args)


@pytest.mark.parametrize("eta", (1.5, -0.1, math.nan))
def test_sweep_point_rejects_efficiency_outside_unit_interval(eta):
    with pytest.raises(ValueError, match="efficiency"):
        sweep_point(500.0, 0.01, eta, 3)


def test_sweep_fold_rejects_error_above_failure_weight():
    # the fold a sweep scores every eta with keeps the herald's invariant
    # error <= 1 - success: a stage's own classes pass, and the same
    # failure classes beside a success weight of 1 do not
    st, beam = _couple(
        _attach_party(prepare_single_photon_qudit(3), phased_coeffs(3, 0), 30.0), 0, 0.004
    )
    classes = _classify_branches(st, beam)
    error_log, error_prob = _failure_log(classes, 0.0)
    assert error_prob == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert error_prob == pytest.approx(1.0 - classes.success_prob, rel=1e-12)
    forged = classes._replace(success_prob=1.0)
    with pytest.raises(ValueError, match="error probability exceeds failure weight"):
        _failure_log(forged, 0.0)


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("n", range(2, 8))
def test_sweep_and_generate_accept_the_same_working_points(n):
    # one rule decides the working point: a grid and a single sweep point
    # are rejected exactly where ProtocolSpec rejects the same (alpha, theta)
    alphas = (0.0, 1.0, ALPHA_MAX, math.nextafter(ALPHA_MAX, math.inf),
              float("nan"), float("inf"))
    thetas = (math.pi, 1e-13, 0.01, 9e307, 1e308) + tuple(
        2 * math.pi * k / n for k in range(1, n + 1)
    )
    # |beam| = alpha theta / sqrt(2) at d = 1 sits on MERGE_TOL's 1e-12 floor
    floor = math.sqrt(2) * MERGE_TOL / 1e-6
    points = [(a, t) for a in alphas for t in thetas]
    points += [(floor * 1.01, 1e-6), (floor * 0.99, 1e-6)]
    verdicts = []
    for alpha, theta in points:
        spec = _raises(ProtocolSpec.balanced, n, 2, None, theta, alpha)
        assert _raises(SweepGrid, (alpha,), (theta,), (1.0,), n) == spec, (alpha, theta)
        assert _raises(sweep_point, alpha, theta, 1.0, n) == spec, (alpha, theta)
        verdicts.append(spec)
    assert verdicts[-2:] == [False, True]


@pytest.mark.parametrize("n", (2, 3, 5))
def test_theta_is_bounded_by_the_largest_xpm_phase(n):
    # A stage computes each XPM phase as theta * units, whose rounding grows
    # with theta and moves p_err_sim off the closed form (2.3e-7 relative at
    # theta = 4925456799.646863, n = 3).  The phase is 2 pi-periodic, so
    # THETA_MAX = 2 pi loses nothing; just below it the two still agree.
    edge = THETA_MAX - 1e-6
    ProtocolSpec.balanced(n, 2, None, edge, 1.0)
    SweepGrid((1.0,), (edge,), (1.0,), n)
    row = sweep_point(1.0, edge, 1.0, n)
    assert row.p_error_simulated == pytest.approx(row.p_error_closed, rel=1e-10)
    for theta in (math.nextafter(THETA_MAX, math.inf), 4925456799.646863, 6.258e17):
        with pytest.raises(ValueError, match=r"\|theta\| must be <= 2 pi"):
            ProtocolSpec.balanced(n, 2, None, theta, 1.0)
        with pytest.raises(ValueError, match=r"\|theta\| must be <= 2 pi"):
            SweepGrid((1.0,), (theta,), (1.0,), n)
        with pytest.raises(ValueError, match=r"\|theta\| must be <= 2 pi"):
            sweep_point(1.0, theta, 1.0, n)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_run_sweep_rows_equal_sweep_point(n):
    # run_sweep classifies each (alpha, theta) stage once and scores it for
    # every eta; each row must be the one the single-point path gives.
    grid = SweepGrid((30.0, 250.0), (0.004, 0.05), (0.0, 0.55, 1.0), n)
    points = itertools.product(grid.alpha_values, grid.theta_values, grid.eta_values)
    expected = [repr(sweep_point(*p, n)) for p in points]
    assert [repr(row) for row in run_sweep(grid)] == expected
    # an int, bool or numpy point is coerced as a grid's is: its row holds
    # floats, and equals the row of the same point given as floats
    for point in ((30, np.float64(0.004), True), (np.int64(250), 0.05, False),
                  (np.float32(30.0), np.float64(0.05), np.float64(0.55))):
        row = sweep_point(*point, np.int64(n))
        assert repr(row) == repr(sweep_point(*map(float, point), n))
        assert all(type(value) is float for value in (row.alpha, row.theta, row.eta))
    # a complex alpha, which no grid takes, is rejected by name
    with pytest.raises(TypeError, match="^alpha: "):
        sweep_point(30 + 0j, 0.004, 1.0, n)


def test_verify_basis_bell_family():
    report = verify_basis(2)
    assert report.passed
    assert report.states == 4
    assert report.symmetric_count == 2
    assert report.asymmetric_count == 2
    # the four targets are exactly the Bell family
    bells = {
        (0, 0): [(1, (0, 0)), (1, (1, 1))],   # phi+
        (1, 0): [(1, (0, 0)), (-1, (1, 1))],  # phi-
        (0, 1): [(1, (0, 1)), (1, (1, 0))],   # psi+
        (1, 1): [(1, (0, 1)), (-1, (1, 0))],  # psi-
    }
    for (m, k), parts in bells.items():
        expected = HybridState(
            RegisterLayout(party_dims=(2, 2)),
            tuple(Term(sign / math.sqrt(2), labels) for sign, labels in parts),
        )
        assert overlap_sq(target_state(2, m, k), expected) == pytest.approx(
            1.0, abs=1e-12
        )


def test_verify_basis_qutrit_partition():
    report = verify_basis(3)
    assert report.passed
    assert report.states == 9
    assert report.pairs_checked == 36
    assert report.symmetric_count == 3
    assert report.asymmetric_count == 6


def test_verify_basis_against_dense_gram_oracle():
    # independent check: build the 25 five-level targets as dense vectors and
    # verify the Gram matrix is the identity
    n = 5
    vectors = []
    tau = np.exp(2j * np.pi / n)
    for m in range(n):
        for k in range(n):
            v = np.zeros(n * n, dtype=complex)
            for j in range(n):
                v[j * n + (j + k) % n] = tau ** (j * m) / math.sqrt(n)
            vectors.append(v)
    gram = np.array(vectors) @ np.array(vectors).conj().T
    assert np.max(np.abs(gram - np.eye(n * n))) < 1e-12
    report = verify_basis(n)
    assert report.passed
    assert report.states == 25
    assert report.max_abs_inner < 1e-12


def test_verify_basis_range():
    with pytest.raises(ValueError):
        verify_basis(1)
    with pytest.raises(ValueError):
        verify_basis(9)
