import cmath
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubus_forge.elements import (
    _UNITARY_TOL,
    apply_bs_5050,
    apply_fourier_lomi,
    apply_pbs,
    apply_qubus_phase,
    apply_su2,
    apply_xpm,
    pol_flip,
    prep_rotation,
)
from qubus_forge.state import (
    POL_H,
    POL_V,
    HybridState,
    RegisterLayout,
    Term,
    canonicalize,
    overlap_sq,
    state_norm_sq,
)

THETA = 0.01


def qutrit_with_ancilla(j, s, beam=500.0):
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=1)
    return HybridState(layout, (Term(1.0, (j, s), (complex(beam),)),))


def test_xpm_upper_rail_phase():
    # label j = 0 of a qutrit holds two upper-rail photons: phase 2 theta
    state = qutrit_with_ancilla(0, 0)
    out = apply_xpm(state, 0, 0, 0, THETA)
    assert out.terms[0].qubus[0] == pytest.approx(
        500.0 * cmath.exp(2j * THETA), rel=1e-14
    )


def test_xpm_top_label_leaves_beam_unchanged():
    state = qutrit_with_ancilla(2, 0)
    out = apply_xpm(state, 0, 0, 0, THETA)
    assert out.terms[0].qubus[0] == 500.0 + 0j


def test_xpm_combined_party_and_spatial_phase():
    state = qutrit_with_ancilla(1, 2, beam=1.0)
    out = apply_xpm(state, 0, 0, 0, THETA)
    # one upper photon plus spatial mode 2: total phase (1 + 2) * 0.01
    assert cmath.phase(out.terms[0].qubus[0]) == pytest.approx(0.03, abs=1e-15)


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_xpm_stage_map_phase_classes_for_qutrit(shift):
    # all nine (j, s) pairs of a qutrit stage, as multiples of theta
    multiples = []
    for j in range(3):
        for s in range(3):
            out = apply_xpm(qutrit_with_ancilla(j, s, beam=1.0), 0, shift, 0, THETA)
            multiples.append(round(cmath.phase(out.terms[0].qubus[0]) / THETA, 9))
    assert sorted(multiples) == [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    closed_form = [(2 - j) + (s + shift) % 3 for j in range(3) for s in range(3)]
    assert sorted(multiples) == sorted(map(float, closed_form))


def test_xpm_preserves_beam_magnitude_and_norm():
    layout = RegisterLayout(party_dims=(4,), ancilla_modes=4, qubus_count=2)
    rng = np.random.default_rng(3)
    terms = tuple(
        Term(
            complex(*rng.normal(size=2)) / 4.0,
            (int(rng.integers(4)), int(rng.integers(4))),
            (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))),
        )
        for _ in range(10)
    )
    state = HybridState(layout, terms)
    out = apply_xpm(state, 0, 2, 1, THETA)
    for before, after in zip(state.terms, out.terms):
        assert abs(after.qubus[1]) == pytest.approx(abs(before.qubus[1]), rel=1e-14)
        assert after.qubus[0] == before.qubus[0]
    assert state_norm_sq(out) == pytest.approx(state_norm_sq(state), abs=1e-12)


def test_xpm_builds_a_phase_only_for_the_units_the_labels_reach(monkeypatch):
    # A party of dimension 200,000 could reach 200,002 unit counts; these two
    # terms reach two, and each phase is exp(i theta units) as before.
    import qubus_forge.elements as elements

    calls = []

    class CountingCmath:
        def __getattr__(self, name):
            return getattr(cmath, name)

        def exp(self, z):
            calls.append(z)
            return cmath.exp(z)

    layout = RegisterLayout(party_dims=(200_000,), ancilla_modes=3, qubus_count=1)
    state = HybridState(layout, (Term(0.6, (0, 1), (2.0,)), Term(0.8, (199_998, 2), (3j,))))
    monkeypatch.setattr(elements, "cmath", CountingCmath())
    out = apply_xpm(state, 0, 1, 0, THETA)
    assert len(calls) <= 2
    units = (199_999 + 2 % 3, 1 + 0 % 3)  # top - j + (s + shift) mod n
    assert out.beams[0] == (2.0 * cmath.exp(1j * THETA * units[0]),
                            3j * cmath.exp(1j * THETA * units[1]))
    assert out.amps == state.amps and out.labels == state.labels


def test_xpm_validation():
    state = qutrit_with_ancilla(0, 0)
    with pytest.raises(ValueError, match="beam index"):
        apply_xpm(state, 0, 0, 5, THETA)
    with pytest.raises(ValueError, match="party index"):
        apply_xpm(state, 3, 0, 0, THETA)
    with pytest.raises(TypeError):
        apply_xpm(state, 0, 1.0, 0, THETA)
    # a fractional party or beam passed the range check and failed as a
    # tuple index
    for party, beam in ((0.5, 0), (0, 0.5)):
        with pytest.raises(TypeError, match="^(party|beam): "):
            apply_xpm(state, party, 0, beam, THETA)
    no_spatial = HybridState(
        RegisterLayout(party_dims=(3,), qubus_count=1), (Term(1.0, (0,), (1.0,)),)
    )
    with pytest.raises(ValueError, match="^layout has no single-photon spatial register$"):
        apply_xpm(no_spatial, 0, 0, 0, THETA)


def test_qubus_phase_undoes_xpm_rotation():
    layout = RegisterLayout(qubus_count=1)
    state = HybridState(layout, (Term(1.0, (), (500.0 * cmath.exp(2j * THETA),)),))
    out = apply_qubus_phase(state, 0, -2.0 * THETA)
    assert out.terms[0].qubus[0] == pytest.approx(500.0 + 0j, rel=1e-14)


def test_qubus_phase_identity_and_half_turn():
    layout = RegisterLayout(qubus_count=1)
    state = HybridState(layout, (Term(1.0, (), (1.0,)),))
    assert apply_qubus_phase(state, 0, 0.0).terms[0].qubus[0] == 1.0 + 0j
    assert apply_qubus_phase(state, 0, math.pi).terms[0].qubus[0] == pytest.approx(
        -1.0 + 0j, abs=1e-15
    )
    with pytest.raises(ValueError, match="beam index"):
        apply_qubus_phase(state, 1, 0.1)


def _beam_pair(a, b):
    layout = RegisterLayout(qubus_count=2)
    return HybridState(layout, (Term(1.0, (), (a, b)),))


def test_bs_balanced_input_goes_dark():
    out = apply_bs_5050(_beam_pair(500.0, 500.0), (0, 1))
    assert out.terms[0].qubus[0] == 0j
    assert out.terms[0].qubus[1] == pytest.approx(math.sqrt(2.0) * 500.0, rel=1e-15)


def test_bs_antisymmetric_input():
    out = apply_bs_5050(_beam_pair(500.0, -500.0), (0, 1))
    assert out.terms[0].qubus[0] == pytest.approx(math.sqrt(2.0) * 500.0, rel=1e-15)
    assert out.terms[0].qubus[1] == 0j


def test_bs_complex_input():
    out = apply_bs_5050(_beam_pair(1.0, 1j), (0, 1))
    assert out.terms[0].qubus[0] == pytest.approx((1 - 1j) / math.sqrt(2), rel=1e-15)
    assert out.terms[0].qubus[1] == pytest.approx((1 + 1j) / math.sqrt(2), rel=1e-15)


def test_bs_rejects_identical_beams():
    with pytest.raises(ValueError, match="distinct"):
        apply_bs_5050(_beam_pair(1.0, 2.0), (1, 1))


beam_amp = st.complex_numbers(max_magnitude=700.0, allow_nan=False, allow_infinity=False)


@given(beam_amp, beam_amp)
def test_bs_conserves_beam_energy(a, b):
    out = apply_bs_5050(_beam_pair(a, b), (0, 1))
    before = abs(a) ** 2 + abs(b) ** 2
    after = sum(abs(q) ** 2 for q in out.terms[0].qubus)
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


def _prep_photon(pol=POL_H, mode=None, n_modes=4):
    layout = RegisterLayout(prep_modes=n_modes)
    if mode is None:
        mode = layout.work_mode
    return HybridState(layout, (Term(1.0, (mode, pol)),))


def test_su2_first_cascade_rotation():
    out = apply_su2(_prep_photon(), prep_rotation(3, 0))
    amps = {t.labels[1]: t.amp for t in out.terms}
    assert amps[POL_H] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert amps[POL_V] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)


def test_su2_pol_flip():
    out = apply_su2(_prep_photon(POL_H), pol_flip())
    assert len(out.terms) == 1
    assert out.terms[0].labels[1] == POL_V


def test_su2_qubit_case_is_balanced():
    out = apply_su2(_prep_photon(), prep_rotation(2, 0))
    amps = sorted(abs(t.amp) for t in out.terms)
    assert amps == pytest.approx([1 / math.sqrt(2)] * 2, rel=1e-14)


def test_su2_rejects_bad_input():
    with pytest.raises(ValueError, match="not unitary"):
        apply_su2(_prep_photon(), np.array([[1.0, 0.1], [0.0, 1.0]]))
    bare = HybridState(RegisterLayout(party_dims=(2,)), (Term(1.0, (0,)),))
    with pytest.raises(ValueError, match="preparation register"):
        apply_su2(bare, pol_flip())


def test_pbs_routes_vertical_component():
    state = apply_su2(_prep_photon(), prep_rotation(3, 0))
    out = apply_pbs(state, state.layout.work_mode, 0)
    by_pol = {t.labels[1]: t.labels[0] for t in out.terms}
    assert by_pol[POL_H] == out.layout.work_mode  # H passes
    assert by_pol[POL_V] == 0  # V reflected into mode 0


def test_pbs_leaves_pure_horizontal_untouched():
    state = _prep_photon(POL_H)
    out = apply_pbs(state, state.layout.work_mode, 0)
    assert out == state
    with pytest.raises(ValueError, match="spatial mode"):
        apply_pbs(state, 0, 99)


def _ancilla_state(j, n):
    layout = RegisterLayout(ancilla_modes=n)
    return HybridState(layout, (Term(1.0, (j,)),))


def test_fourier_two_modes_is_balanced_splitter():
    out = apply_fourier_lomi(_ancilla_state(0, 2))
    amps = {t.labels[0]: t.amp for t in out.terms}
    assert amps[0] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert amps[1] == pytest.approx(1 / math.sqrt(2), rel=1e-14)


def test_fourier_qutrit_mode_one():
    tau = cmath.exp(2j * math.pi / 3.0)
    out = apply_fourier_lomi(_ancilla_state(1, 3))
    amps = {t.labels[0]: t.amp for t in out.terms}
    for k in range(3):
        assert amps[k] == pytest.approx(tau**k / math.sqrt(3), rel=1e-13)


def test_fourier_twice_is_mode_reversal():
    for n in (3, 4, 5):
        for j in range(n):
            twice = apply_fourier_lomi(apply_fourier_lomi(_ancilla_state(j, n)))
            expected = _ancilla_state((-j) % n, n)
            assert overlap_sq(twice, expected) == pytest.approx(1.0, abs=1e-12)


def test_fourier_requires_ancilla():
    bare = HybridState(RegisterLayout(party_dims=(2,)), (Term(1.0, (0,)),))
    with pytest.raises(ValueError, match="spatial register"):
        apply_fourier_lomi(bare)


def _generic_state(seed=0):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(
        party_dims=(3,), ancilla_modes=3, prep_modes=2, qubus_count=2
    )
    terms = []
    for _ in range(9):
        terms.append(
            Term(
                complex(*rng.normal(size=2)) / 5.0,
                (
                    int(rng.integers(3)),
                    int(rng.integers(3)),
                    int(rng.integers(2)),
                    int(rng.integers(2)),
                ),
                (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))),
            )
        )
    return HybridState(layout, tuple(terms))


@pytest.mark.parametrize(
    "op",
    [
        lambda s: apply_xpm(s, 0, 1, 1, THETA),
        lambda s: apply_qubus_phase(s, 0, 0.37),
        lambda s: apply_bs_5050(s, (0, 1)),
        lambda s: apply_su2(s, prep_rotation(4, 1)),
        lambda s: apply_pbs(s, 1, 0),
        lambda s: apply_fourier_lomi(s),
    ],
    ids=["xpm", "phase", "bs", "su2", "pbs", "fourier"],
)
def test_every_element_preserves_norm(op):
    state = _generic_state()
    assert state_norm_sq(op(state)) == pytest.approx(
        state_norm_sq(state), abs=1e-12
    )


def _coupled(beams):
    """A qutrit and a spatial qutrit in every label pair, each term carrying
    ``beams``."""
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=3, qubus_count=len(beams))
    terms = tuple(Term(1 / 3, (j, s), beams) for j in range(3) for s in range(3))
    return HybridState(layout, terms)


def _h_photon():
    return HybridState(RegisterLayout(prep_modes=2), (Term(1.0, (1, POL_H)),))


_NAN = float("nan")
_INF = float("inf")
_BEAM_LIMIT = 1.7e308 + 1.7e308j

# Every element rejects an input that makes a number it computes non-finite,
# with the message of the field check that the number would fail, or one
# naming the input at fault (an XPM theta, an su2 matrix).
REJECTED_INPUTS = [
    ("xpm theta nan", lambda: apply_xpm(_coupled((1.0, 2.0)), 0, 1, 1, _NAN),
     "qubus amplitudes must be finite"),
    ("xpm theta inf", lambda: apply_xpm(_coupled((1.0, 2.0)), 0, 1, 1, _INF),
     "qubus amplitudes must be finite"),
    ("xpm theta -inf", lambda: apply_xpm(_coupled((1.0, 2.0)), 0, 1, 1, -_INF),
     "qubus amplitudes must be finite"),
    # theta is finite, but the largest stage phase, 4 theta, overflows
    ("xpm theta 1e308", lambda: apply_xpm(_coupled((1.0, 2.0)), 0, 1, 1, 1e308),
     re.escape("theta = 1e+308 is too large: the largest XPM phase, 4 theta, overflows")),
    ("phase nan", lambda: apply_qubus_phase(_coupled((1.0, 2.0)), 1, _NAN),
     "qubus amplitudes must be finite"),
    ("phase inf", lambda: apply_qubus_phase(_coupled((1.0, 2.0)), 1, _INF),
     "qubus amplitudes must be finite"),
    ("phase -inf", lambda: apply_qubus_phase(_coupled((1.0, 2.0)), 1, -_INF),
     "qubus amplitudes must be finite"),
    # |beam| is finite, but a rotation by ~pi/4 puts it all on one axis
    ("phase overflow", lambda: apply_qubus_phase(_coupled((1.0, _BEAM_LIMIT)), 1, 0.785),
     "qubus amplitudes must be finite"),
    ("bs overflow", lambda: apply_bs_5050(_coupled((1e308, 1e308)), (0, 1)),
     "qubus amplitudes must be finite"),
    ("bs overflow difference", lambda: apply_bs_5050(_coupled((1e308, -1e308)), (0, 1)),
     "qubus amplitudes must be finite"),
    ("su2 nan", lambda: apply_su2(_h_photon(), np.array([[_NAN, 0], [0, 1]])),
     "su2 matrix entries must be finite"),
    ("su2 nan off-diagonal", lambda: apply_su2(_h_photon(), np.array([[0, 1], [_NAN, 0]])),
     "su2 matrix entries must be finite"),
    ("su2 inf", lambda: apply_su2(_h_photon(), np.array([[_INF, 0], [0, 1]])),
     "su2 matrix entries must be finite"),
    ("merge overflow", lambda: canonicalize(HybridState(
        RegisterLayout(ancilla_modes=2, qubus_count=1),
        (Term(1.7e308, (0,), (1.0,)), Term(1.7e308, (0,), (1.0,))),
    )), "term amplitude must be finite"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "build, message",
    [(build, message) for _, build, message in REJECTED_INPUTS],
    ids=[name for name, _, _ in REJECTED_INPUTS],
)
def test_elements_reject_non_finite_results(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def _numpy_su2_message(u, has_prep):
    """The message numpy's form of the su2 checks gives, in their order:
    shape, unitarity (whose NaN passes), the preparation register, then
    finiteness; None when the matrix is accepted.

    One case is not numpy's: a finite u whose u^dagger u overflows is not
    unitary.  numpy's answer there depends on where its matrix product's
    kernel turns an overflow into NaN (np.max passes NaN), which varies with
    the kernel, so the expected message is the rejection."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return "expected a 2x2 matrix"
    with np.errstate(all="ignore"):
        deviation = u.conj().T @ u - np.eye(2)
        if np.isfinite(u).all() and not np.isfinite(deviation).all():
            return "matrix is not unitary"
        if np.max(np.abs(deviation)) > 1e-12:
            return "matrix is not unitary"
    if not has_prep:
        return "layout has no preparation register"
    if not np.isfinite(u).all():
        return "su2 matrix entries must be finite"
    return None


_SU2_ENTRIES = [0, 1, -1j, 0.6, 1e200, -1e200, complex(1e200, 1e200), 1.7e308,
                _NAN, _INF, complex(-_INF, _INF)]


def _su2_corpus(seed, count):
    """Every 2x2 matrix over _SU2_ENTRIES (finite ones whose u^dagger u
    overflows among them), then seeded rotations with one entry replaced
    or scaled."""
    for entries in itertools.product(_SU2_ENTRIES, repeat=4):
        yield [list(entries[:2]), list(entries[2:])]
    rng = random.Random(seed)
    for _ in range(count):
        phi = rng.uniform(0, 2 * math.pi)
        u = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        i, j = rng.randrange(2), rng.randrange(2)
        if rng.random() < 0.5:
            u[i][j] = rng.choice(_SU2_ENTRIES + [complex(_NAN, 1), 1e-300, 1e154])
        else:
            u[i][j] *= 1 + rng.choice([1e-13, 1e-11, 1e-3, 1e160])
        yield u


def test_su2_messages_match_numpys_checks():
    prep = _h_photon()
    bare = HybridState(RegisterLayout(party_dims=(2,)), (Term(1.0, (0,)),))
    seen = set()
    for u in itertools.chain(_su2_corpus(20261018, 1000), (
        [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]], [1, 0, 0, 1], [],
        1.0,
    )):
        for state, has_prep in ((prep, True), (bare, False)):
            expected = _numpy_su2_message(u, has_prep)
            seen.add(expected)
            if expected is None:
                apply_su2(state, u)
                continue
            with pytest.raises(ValueError) as info:
                apply_su2(state, u)
            assert str(info.value) == expected, u
    assert len(seen) == 5, seen  # every outcome, acceptance included
    # numpy cannot build an array from ragged rows and raised its own error
    with pytest.raises(ValueError, match="^expected a 2x2 matrix$"):
        apply_su2(prep, [[1, 0], [0]])


@pytest.mark.parametrize("u", [
    [[1e200, 1e200], [1e200, -1e200]],  # off-diagonal inf - inf is NaN
    [[0, 0], [0, complex(1e200, 1e200)]],  # |d|^2 overflows
    [[1e154, 0], [0, 1]],
])
def test_su2_rejects_a_finite_matrix_whose_product_overflows(u):
    # NaN in u^dagger u - 1 fails the check: it only arises from an overflow
    for state in (_h_photon(), _prep_photon(POL_V)):
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            apply_su2(state, u)


@pytest.mark.parametrize("deviation, accepted", [(0.9e-12, True), (1.1e-12, False)])
def test_su2_unitarity_tolerance_edge(deviation, accepted):
    # |u00|^2 - 1 = deviation, to within an ulp of 1
    u = [[math.sqrt(1.0 + deviation), 0.0], [0.0, 1.0]]
    assert _UNITARY_TOL == 1e-12
    if accepted:
        out = apply_su2(_prep_photon(), u)
        assert out.terms[0].amp == math.sqrt(1.0 + deviation)
    else:
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            apply_su2(_prep_photon(), u)


def test_su2_takes_nested_sequences_and_ndarrays_alike():
    for n, j in ((3, 0), (5, 2), (2, 0)):
        rotation = prep_rotation(n, j)
        # Python complex with imaginary parts +0.0, as the ndarray had
        assert all(type(x) is complex and math.copysign(1.0, x.imag) == 1.0
                   for row in rotation for x in row)
        by_tuple = apply_su2(_prep_photon(), rotation)
        by_array = apply_su2(_prep_photon(), np.array(rotation))
        assert by_tuple == by_array
    assert pol_flip() == ((0j, 1 + 0j), (1 + 0j, 0j))


@pytest.mark.parametrize("label", [0, 1])
def test_fourier_accepts_the_largest_finite_amplitudes(label):
    # 1.7e308 (1 + 1j) / sqrt(2) and its phase rotations stay finite: a check
    # that squares or sums amplitudes before they are stored would reject it.
    state = HybridState(RegisterLayout(ancilla_modes=2), (Term(_BEAM_LIMIT, (label,)),))
    out = apply_fourier_lomi(state)
    assert len(out.terms) == 2
    assert all(cmath.isfinite(t.amp) for t in out.terms)
    assert out.terms[0].amp == _BEAM_LIMIT * (1.0 / math.sqrt(2))
