import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubus_forge.state import (
    DROP_TOL,
    MERGE_TOL,
    HybridState,
    LogComplex,
    RegisterLayout,
    Term,
    canonicalize,
    coherent_overlap,
    drop_uniform_beam,
    inner_product,
    overlap_sq,
    state_from_dict,
    state_norm_sq,
    state_to_dict,
)


def fock_series_overlap(a, b, nterms=120):
    """Independent oracle: <a|b> = e^{-(|a|^2+|b|^2)/2} sum_m (a* b)^m / m!.

    Converges in double precision for |a|, |b| <= 4.
    """
    a, b = complex(a), complex(b)
    z = a.conjugate() * b
    term = 1.0 + 0j
    acc = 1.0 + 0j
    for m in range(1, nterms):
        term *= z / m
        acc += term
    return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2)) * acc


small_complex = st.complex_numbers(
    max_magnitude=4.0, allow_nan=False, allow_infinity=False
)
mid_complex = st.complex_numbers(
    max_magnitude=25.0, allow_nan=False, allow_infinity=False
)


def test_overlap_identity():
    for alpha in (0.3, 2.0 + 1.5j, 500.0, -7j):
        ov = coherent_overlap(alpha, alpha)
        assert ov.log_magnitude == pytest.approx(0.0, abs=1e-12)
        assert ov.phase == pytest.approx(0.0, abs=1e-12)


def test_overlap_vacuum_against_bright_beam():
    ov = coherent_overlap(0.0, 500.0)
    assert ov.log_magnitude == -125000.0
    assert ov.phase == 0.0


def test_overlap_phase_rotated_bright_beam():
    alpha, theta = 500.0, 0.01
    ov = coherent_overlap(alpha, alpha * cmath.exp(1j * theta))
    expected_log_sq = -4.0 * alpha**2 * math.sin(theta / 2.0) ** 2
    assert 2.0 * ov.log_magnitude == pytest.approx(expected_log_sq, rel=1e-12)
    # the magnitude itself lands near e^-25 ~ 1.39e-11
    assert 1.3e-11 < ov.abs_sq() < 1.5e-11


@given(small_complex, small_complex)
def test_overlap_matches_fock_series(a, b):
    closed = coherent_overlap(a, b).to_complex()
    series = fock_series_overlap(a, b)
    assert abs(closed - series) < 1e-10


@given(mid_complex, mid_complex)
def test_overlap_abs_sq_is_gaussian_in_distance(a, b):
    ov = coherent_overlap(a, b)
    d_sq = abs(a - b) ** 2
    assert 2.0 * ov.log_magnitude == pytest.approx(-d_sq, rel=1e-10, abs=1e-10)


def test_log_complex_round_trip():
    for z in (1.0, -2.5 + 0.3j, 1e-150j, 3.7e200):
        lc = LogComplex.from_complex(z)
        assert lc.to_complex() == pytest.approx(z, rel=1e-12)
    assert LogComplex.from_complex(0).to_complex() == 0j
    assert LogComplex(-125000.0, 0.0).abs_sq() == 0.0  # clean underflow


def _single(amp, labels=(0,), qubus=(), layout=None):
    if layout is None:
        layout = RegisterLayout(party_dims=(3,), qubus_count=len(qubus))
    return HybridState(layout, (Term(amp, labels, qubus),))


def test_norm_single_term():
    state = _single(1.0 / math.sqrt(3.0))
    assert state_norm_sq(state) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_norm_merges_identical_terms():
    layout = RegisterLayout(party_dims=(2,))
    state = HybridState(layout, (Term(0.5, (1,)), Term(0.5, (1,))))
    assert state_norm_sq(state) == pytest.approx(1.0, abs=1e-15)


def test_norm_rejects_empty_state():
    layout = RegisterLayout(party_dims=(2,))
    with pytest.raises(ValueError, match="empty state"):
        state_norm_sq(HybridState(layout, ()))


def test_norm_modes_differ_by_coherent_cross_terms():
    # Same labels, two distinct beams: a cat-like superposition.  The norm
    # is |amp|^2 summed (= 1) plus the interference term
    # 2 |amp|^2 Re<alpha|-alpha> = e^{-2|alpha|^2}.
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    amp = 1.0 / math.sqrt(2.0)
    for alpha in (1.0, 2.5):
        terms = (Term(amp, (0,), (alpha,)), Term(amp, (0,), (-alpha,)))
        gram = state_norm_sq(HybridState(layout, terms))
        assert gram - 1.0 == pytest.approx(math.exp(-2.0 * alpha**2), rel=1e-10)
    # beyond |alpha|^2 = 10 the cross term is below 1e-8
    terms = (Term(amp, (0,), (4.0,)), Term(amp, (0,), (-4.0,)))
    gram = state_norm_sq(HybridState(layout, terms))
    assert abs(gram - 1.0) < 1e-8


def test_norm_invariant_under_term_order(rng_states=20):
    import numpy as np

    rng = np.random.default_rng(7)
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=2, qubus_count=1)
    for _ in range(rng_states):
        terms = tuple(
            Term(
                complex(*rng.normal(size=2)),
                (int(rng.integers(3)), int(rng.integers(2))),
                (complex(*rng.normal(size=2)),),
            )
            for _ in range(6)
        )
        fwd = state_norm_sq(HybridState(layout, terms))
        rev = state_norm_sq(HybridState(layout, terms[::-1]))
        assert fwd == pytest.approx(rev, abs=1e-12)
        canon = state_norm_sq(canonicalize(HybridState(layout, terms)))
        assert fwd == pytest.approx(canon, abs=1e-12)


def test_canonicalize_merges_amplitudes():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout, (Term(0.3, (0,), (1.0,)), Term(0.4, (0,), (1.0,)))
    )
    canon = canonicalize(state)
    assert canon.num_terms == 1
    assert canon.terms[0].amp == pytest.approx(0.7)


def test_canonicalize_drops_zero_amplitude():
    layout = RegisterLayout(party_dims=(2,))
    state = HybridState(layout, (Term(0.0, (0,)), Term(1.0, (1,))))
    canon = canonicalize(state)
    assert [t.labels for t in canon.terms] == [(1,)]
    # DROP_TOL edge: just below it a term is dropped, just above it is kept
    for factor, kept in ((0.9, [(1,)]), (1.1, [(0,), (1,)])):
        state = HybridState(layout, (Term(factor * DROP_TOL, (0,)), Term(1.0, (1,))))
        assert [t.labels for t in canonicalize(state).terms] == kept


def test_canonicalize_merges_nearby_qubus_amplitudes():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout,
        (Term(0.5, (0,), (1.0,)), Term(0.5, (0,), (1.0 + 1e-15,))),
    )
    canon = canonicalize(state)
    assert canon.num_terms == 1
    assert canonicalize(canon) == canon  # idempotent
    # MERGE_TOL is absolute for beams up to |q| = 1 and relative beyond:
    # same-label beams 0.9 tolerances apart merge, 1.1 tolerances apart stay
    for base in (0.0, 500.0):
        for factor, count in ((0.9, 1), (1.1, 2)):
            shifted = base + factor * MERGE_TOL * max(1.0, base)
            state = HybridState(
                layout, (Term(0.5, (0,), (base,)), Term(0.5, (0,), (shifted,)))
            )
            assert canonicalize(state).num_terms == count


def test_canonicalize_idempotent_on_random_states():
    import numpy as np

    rng = np.random.default_rng(11)
    layout = RegisterLayout(party_dims=(2, 2), qubus_count=1)
    for _ in range(25):
        terms = tuple(
            Term(
                complex(*rng.normal(size=2)),
                (int(rng.integers(2)), int(rng.integers(2))),
                (complex(rng.choice([0.0, 1.0, -1.0])),),
            )
            for _ in range(8)
        )
        once = canonicalize(HybridState(layout, terms))
        assert canonicalize(once) == once


def test_state_validation():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    with pytest.raises(ValueError, match="out of range"):
        HybridState(layout, (Term(1.0, (2,), (0.0,)),))
    with pytest.raises(ValueError, match="qubus"):
        HybridState(layout, (Term(1.0, (0,), ()),))
    with pytest.raises(ValueError, match="finite"):
        HybridState(layout, (Term(float("nan"), (0,), (0.0,)),))


def test_layout_validation_and_slots():
    with pytest.raises(ValueError):
        RegisterLayout(party_dims=(0,))
    with pytest.raises(ValueError):
        RegisterLayout(qubus_count=-1)
    layout = RegisterLayout(party_dims=(3, 2), ancilla_modes=3, prep_modes=4)
    assert layout.party_slot(1) == 1
    assert layout.ancilla_slot == 2
    assert layout.prep_spatial_slot == 3
    assert layout.prep_pol_slot == 4
    assert layout.work_mode == 3
    assert layout.label_dims() == (3, 2, 3, 4, 2)


def test_inner_product_requires_matching_layouts():
    a = _single(1.0)
    b = _single(1.0, layout=RegisterLayout(party_dims=(4,)))
    with pytest.raises(ValueError, match="layout mismatch"):
        inner_product(a, b)


def test_overlap_sq_is_phase_insensitive():
    layout = RegisterLayout(party_dims=(2,))
    a = HybridState(layout, (Term(1.0, (0,)),))
    b = HybridState(layout, (Term(cmath.exp(0.7j), (0,)),))
    assert overlap_sq(a, b) == pytest.approx(1.0, abs=1e-12)


def test_serialization_round_trip():
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=2, qubus_count=2)
    state = HybridState(
        layout,
        (
            Term(0.6 + 0.1j, (1, 0), (2.0 + 1j, 0.0)),
            Term(0.3 - 0.2j, (2, 1), (0.0, -1.5j)),
        ),
    )
    data = state_to_dict(state)
    assert data["norm_mode"] == "gram_exact"
    assert state_from_dict(data) == state
    with pytest.raises(ValueError, match="norm mode"):
        state_from_dict({**data, "norm_mode": "orthogonal_approx"})


def test_drop_uniform_beam():
    layout = RegisterLayout(party_dims=(2,), qubus_count=2)
    uniform = HybridState(
        layout,
        (Term(0.6, (0,), (1.0, 3.0)), Term(0.8, (1,), (2.0, 3.0))),
    )
    reduced = drop_uniform_beam(uniform, 1)
    assert reduced.layout.qubus_count == 1
    assert all(t.qubus == (q,) for t, q in zip(reduced.terms, (1.0, 2.0)))
    with pytest.raises(ValueError, match="entangled"):
        drop_uniform_beam(uniform, 0)
    with pytest.raises(ValueError, match="out of range"):
        drop_uniform_beam(uniform, 2)
