import cmath
import functools
import itertools
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubus_forge import state as state_module
from qubus_forge.state import (
    DROP_TOL,
    MERGE_TOL,
    HybridState,
    RegisterLayout,
    Term,
    _derive,
    _inner,
    _logaddexp_reduce,
    _merge_groups,
    canonicalize,
    coherent_overlap,
    drop_uniform_beam,
    inner_product,
    overlap_sq,
    qubus_close,
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
        assert ov.real == pytest.approx(0.0, abs=1e-12)
        assert ov.imag == pytest.approx(0.0, abs=1e-12)


def test_overlap_vacuum_against_bright_beam():
    ov = coherent_overlap(0.0, 500.0)
    assert ov.real == -125000.0
    assert ov.imag == 0.0
    assert cmath.exp(ov) == 0j  # clean underflow


def test_overlap_phase_rotated_bright_beam():
    alpha, theta = 500.0, 0.01
    ov = coherent_overlap(alpha, alpha * cmath.exp(1j * theta))
    expected_log_sq = -4.0 * alpha**2 * math.sin(theta / 2.0) ** 2
    assert 2.0 * ov.real == pytest.approx(expected_log_sq, rel=1e-12)
    # the magnitude itself lands near e^-25 ~ 1.39e-11
    assert 1.3e-11 < math.exp(2.0 * ov.real) < 1.5e-11


@given(small_complex, small_complex)
def test_overlap_matches_fock_series(a, b):
    closed = cmath.exp(coherent_overlap(a, b))
    series = fock_series_overlap(a, b)
    assert abs(closed - series) < 1e-10


@given(mid_complex, mid_complex)
def test_overlap_abs_sq_is_gaussian_in_distance(a, b):
    ov = coherent_overlap(a, b)
    d_sq = abs(a - b) ** 2
    assert 2.0 * ov.real == pytest.approx(-d_sq, rel=1e-10, abs=1e-10)


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
    # terms canonicalize would merge or drop count the same unmerged:
    # a duplicated (labels, beam) pair, beams 0.5 MERGE_TOL apart, and a
    # term below DROP_TOL
    beam = 0.8 - 0.3j
    raw_states = (
        (Term(0.6, (1, 0), (beam,)), Term(0.2j, (1, 0), (beam,)),
         Term(0.7, (2, 1), (beam,))),
        (Term(0.6, (1, 0), (beam,)), Term(0.5, (1, 0), (beam + 0.5 * MERGE_TOL,))),
        (Term(0.5 * DROP_TOL, (0, 0), (beam,)), Term(0.9, (1, 0), (beam,))),
    )
    for terms in raw_states:
        raw = HybridState(layout, terms)
        assert len(canonicalize(raw).terms) < len(raw.terms)
        canon = state_norm_sq(canonicalize(raw))
        assert state_norm_sq(raw) == pytest.approx(canon, abs=1e-12)


def _inner_in_pair_order(a, b, classes=None):
    """<a|b> adding every equal-label pair in i-major, ascending-j order,
    with the pair weights of ``state._inner``, and the class sums when
    ``classes`` is given."""
    total = 0j
    sums = None if classes is None else [0j] * (max(classes) + 1)
    for i, labels in enumerate(a.labels):
        for j, other in enumerate(b.labels):
            if labels != other:
                continue
            if a is b and i == j:
                amp = a.amps[i]
                pair = amp.real * amp.real + amp.imag * amp.imag
            else:
                log_ov = 0j
                for col_a, col_b in zip(a.beams, b.beams):
                    log_ov += coherent_overlap(col_a[i], col_b[j])
                pair = a.amps[i].conjugate() * b.amps[j] * cmath.exp(log_ov)
            total += pair
            if sums is not None and classes[i] == classes[j]:
                sums[classes[i]] += pair
    return total if sums is None else (total, sums)


def test_inner_adds_pairs_in_i_major_ascending_j_order():
    # _inner indexes b's terms by label, with a list per label only when one
    # repeats; either way its sums must be those of the pair order, bit for
    # bit, on labels repeated apart (positions 0, 2, 5 and 1, 4) and on
    # labels held once
    rng = random.Random(11)
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=2, qubus_count=2)

    def state(label_list):
        return HybridState(layout, [
            Term(complex(rng.gauss(0, 1), rng.gauss(0, 1)), labels,
                 tuple(complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(2)))
            for labels in label_list
        ])

    def bits(z):
        return z.real.hex(), z.imag.hex()

    repeated = [(0, 1), (2, 0), (0, 1), (1, 1), (2, 0), (0, 1), (1, 0)]
    distinct = [(0, 1), (2, 0), (1, 1), (0, 0), (1, 0), (2, 1)]
    for label_list in (repeated, distinct):
        for _ in range(5):
            a, b = state(label_list), state(label_list[::-1])
            classes = [rng.randrange(3) for _ in label_list]
            assert bits(_inner(a, b)) == bits(_inner_in_pair_order(a, b))
            assert bits(inner_product(a, b)) == bits(_inner_in_pair_order(a, b))
            assert state_norm_sq(a).hex() == _inner_in_pair_order(a, a).real.hex()
            total, sums = _inner(a, a, classes)
            want_total, want_sums = _inner_in_pair_order(a, a, classes)
            assert bits(total) == bits(want_total)
            assert list(map(bits, sums)) == list(map(bits, want_sums))


def test_canonicalize_merges_amplitudes():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    state = HybridState(
        layout, (Term(0.3, (0,), (1.0,)), Term(0.4, (0,), (1.0,)))
    )
    canon = canonicalize(state)
    assert len(canon.terms) == 1
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
    assert len(canon.terms) == 1
    assert canonicalize(canon) == canon  # idempotent
    # MERGE_TOL is absolute for beams up to |q| = 1 and relative beyond:
    # same-label beams 0.9 tolerances apart merge, 1.1 tolerances apart stay
    for base in (0.0, 500.0):
        for factor, count in ((0.9, 1), (1.1, 2)):
            shifted = base + factor * MERGE_TOL * max(1.0, base)
            state = HybridState(
                layout, (Term(0.5, (0,), (base,)), Term(0.5, (0,), (shifted,)))
            )
            assert len(canonicalize(state).terms) == count


def _beam_key(q: complex) -> tuple[float, float]:
    """The merge rule's rounded key of one beam: its real and imaginary
    parts rounded to the 12 decimals of MERGE_TOL."""
    return (round(q.real, 12), round(q.imag, 12))


def merge_rows(rows, index=None):
    """_merge_groups over one beam tuple per term: the rows transposed into
    beam columns, grouping the terms ``index`` (all of them by default)."""
    return _merge_groups(tuple(zip(*rows)), range(len(rows)) if index is None else index)


def greedy_merge_groups(beams):
    """Oracle: the O(T K) greedy grouping that compares each visited tuple
    with every group representative."""
    groups: list[list[int]] = []
    order = sorted(range(len(beams)), key=lambda i: tuple(map(_beam_key, beams[i])))
    for i in order:
        for g in groups:
            if all(map(qubus_close, beams[g[0]], beams[i])):
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


# the conjugate pairs share a real part, as each +-d pair of herald beams
# does, so the representatives' real parts tie; 0.5e-12 + 500j puts real
# parts a window's width apart on a rounding boundary of their 12-decimal
# keys
MERGE_CENTRES = (
    0.0, 1.0, 500.0, -500.0, 500j, 500 + 3j, 500 - 3j, 0.04 + 4.2j, 0.04 - 4.2j,
    0.5e-12 + 500j,
)
MERGE_DIRECTIONS = (1, -1, 1j, -1j) + tuple(
    cmath.exp(1j * math.pi * (k + 0.5) / 2) for k in range(4)
)
clustered_beam = st.builds(
    lambda c, r, d: c + r * MERGE_TOL * max(1.0, abs(c)) * d,
    st.sampled_from(MERGE_CENTRES),
    st.one_of(st.floats(0.0, 3.0), st.sampled_from((0.99, 1.0, 1.01))),
    st.sampled_from(MERGE_DIRECTIONS),
)
beam_tuple_lists = st.integers(0, 2).flatmap(
    lambda width: st.lists(st.tuples(*[clustered_beam] * width), max_size=14)
)


@settings(max_examples=300, deadline=None)
@given(beam_tuple_lists)
def test_windowed_merge_groups_equal_the_greedy_rule(beams):
    assert merge_rows(beams) == greedy_merge_groups(beams)


def test_merge_window_edges():
    # real parts 0.99 tolerances apart merge; 0.5 more in the imaginary part
    # puts |d| above MERGE_TOL, although the real parts are as close
    for c in (0.0, 500.0 + 7j, -500j):
        scale = MERGE_TOL * max(1.0, abs(c))
        for d, groups in ((0.99 * scale, 1), (complex(0.99, 0.5) * scale, 2)):
            for beams in ([(c,), (c + d,)], [(c + d,), (c,)], [(c, 1.0), (c + d, 1.0)]):
                assert len(merge_rows(beams)) == groups, (c, d, beams)
                assert merge_rows(beams) == greedy_merge_groups(beams)
    # both representatives accept the last tuple; it joins the older group,
    # although the newer one has the smaller first-beam real part
    beams = [(0.3e-12, -0.2e-12), (-0.3e-12, 1.4e-12), (0.0, 0.6e-12)]
    assert merge_rows(beams) == greedy_merge_groups(beams) == [[0, 2], [1]]
    # close pairs whose first real parts, once rounded to their keys, lie
    # farther apart than the window would without its rounding slack
    for beams in (
        [(5.005000000000006e-10 + 500.0000000000005j,), (5e-13 + 500.0000000000005j,)],
        [(1.0000000000028284 + 1j,), (1.0000000000014284 + 1j,)],
    ):
        assert merge_rows(beams) == greedy_merge_groups(beams) == [[1, 0]], beams
    assert merge_rows([(), (), ()]) == [[0, 1, 2]]
    assert merge_rows([(5.0,)]) == [[0]]
    assert merge_rows([]) == []


def test_merge_groups_place_exact_repeats_like_the_greedy_rule():
    # exact repeats of a tuple, among near-ties and tuples of the same
    # rounded key, join the group of its first copy; every case below must
    # group as the greedy rule does
    tol = MERGE_TOL * 500.0
    a, b, near_a = 500.0 + 0j, 500.0 + 1e-3j, 500.0 + 0.9 * tol
    # the same rounded _beam_key, yet |u - v| = 1.3e-12 > MERGE_TOL: apart
    u, v = complex(0.1 + 0.45e-12, 0.2 + 0.45e-12), complex(0.1 - 0.45e-12, 0.2 - 0.45e-12)
    assert _beam_key(u) == _beam_key(v) and not qubus_close(u, v)
    # the same rounded key and within MERGE_TOL: one group
    w = complex(0.1 + 0.3e-12, 0.2)
    assert _beam_key(u) == _beam_key(w) and qubus_close(u, w)
    neg_zero = complex(-0.0, 0.0)
    cases = [
        # repeats of one tuple interleaved with others
        [(a,), (b,), (a,), (near_a,), (a,), (b,), (a,)],
        [(b,), (a,), (b,), (b,), (near_a,), (a,)],
        # 0j and -0.0 + 0j are equal tuples with equal keys
        [(0j,), (neg_zero,), (1.0,), (0j,), (complex(0.0, -0.0),), (neg_zero,)],
        [(neg_zero,), (0j,), (neg_zero,)],
        # a repeat after a near-tie with the same rounded key
        [(u,), (v,), (u,), (v,), (u,)],
        [(v,), (u,), (w,), (u,), (v,), (w,)],
        # two-beam tuples
        [(a, b), (a, near_a), (a, b), (near_a, b), (a, near_a), (a, b)],
        [(u, 1.0), (v, 1.0), (u, 2.0), (u, 1.0), (v, 1.0), (u, 2.0)],
        [(0j, neg_zero), (neg_zero, 0j), (0j, 0j), (0j, 1e-3)],
    ]
    for beams in cases:
        assert merge_rows(beams) == greedy_merge_groups(beams), beams
    assert merge_rows(cases[0]) == [[0, 2, 4, 6, 3], [1, 5]]
    assert merge_rows(cases[4]) == [[0, 2, 4], [1, 3]]


def canonicalize_by_label_dict(state):
    """Reference: canonicalize with one merge per distinct label, the labels
    bucketed in a dict and visited in sorted order."""
    rows = [t.qubus for t in state.terms]
    by_labels = {}
    for i, labels in enumerate(state.labels):
        by_labels.setdefault(labels, []).append(i)
    terms = []
    for labels in sorted(by_labels):
        for g in merge_rows(rows, by_labels[labels]):
            amp = state.amps[g[0]]
            for i in g[1:]:
                amp += state.amps[i]
            if abs(amp) >= DROP_TOL:
                terms.append(Term(amp, labels, rows[g[0]]))
    return HybridState(state.layout, terms)


# the same rounded _beam_key for all three; u and v are 1.3e-12 apart (two
# values), w is within MERGE_TOL of u
NEAR_U = complex(0.1 + 0.45e-12, 0.2 + 0.45e-12)
NEAR_V = complex(0.1 - 0.45e-12, 0.2 - 0.45e-12)
NEAR_W = complex(0.1 + 0.3e-12, 0.2)
REGROUP_BEAMS = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1.0, 500.0,
    500.0 + 0.9 * MERGE_TOL * 500.0, NEAR_U, NEAR_V, NEAR_W,
)
REGROUP_AMPS = (
    0.3 + 0.1j, -0.3 - 0.1j, -0.3 - 0.1j + 4e-15, 0.5 * DROP_TOL, 0j,
    complex(-0.0, 0.0), -0.7j,
)


def _regroup_state(rng, beams, labels):
    """A state on ``labels``, its beams and amplitudes drawn from pools of
    near-ties, signed zeros and amplitudes that cancel below DROP_TOL."""
    layout = RegisterLayout(party_dims=(3, 2), qubus_count=beams)
    terms = []
    for lab in labels:
        amp = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if rng.random() < 0.6:
            amp = rng.choice(REGROUP_AMPS)
        terms.append(Term(amp, lab, tuple(rng.choice(REGROUP_BEAMS) for _ in range(beams))))
    return HybridState(layout, terms)


def test_canonicalize_by_sorted_runs_equals_the_label_dict():
    rng = random.Random("regroup")
    every_label = [(a, b) for a in range(3) for b in range(2)]
    for beams in (0, 1, 2):
        # equal-label runs first, in the middle and last in sorted order,
        # and a state of distinct labels only
        for labels in (
            [(0, 0), (2, 1), (0, 0), (1, 0)],
            [(2, 1), (1, 0), (0, 0), (1, 0), (1, 0)],
            [(2, 1), (0, 0), (1, 1), (2, 1)],
            every_label[::-1],
            [(1, 1)],
            [],
        ):
            for _ in range(20):
                state = _regroup_state(rng, beams, labels)
                assert repr(canonicalize(state)) == repr(canonicalize_by_label_dict(state))
        for _ in range(300):
            labels = [rng.choice(every_label) for _ in range(rng.randint(0, 14))]
            state = _regroup_state(rng, beams, labels)
            assert repr(canonicalize(state)) == repr(canonicalize_by_label_dict(state))
    # a group that cancels below DROP_TOL is dropped in the middle of a run
    layout = RegisterLayout(party_dims=(3, 2), qubus_count=1)
    state = HybridState(
        layout,
        (
            Term(0.3 + 0.1j, (1, 0), (NEAR_U,)),
            Term(0.5, (1, 0), (1.0,)),
            Term(-0.3 - 0.1j + 4e-15, (1, 0), (NEAR_W,)),
            Term(0.2, (0, 0), (0j,)),
        ),
    )
    assert [(t.labels, t.qubus) for t in canonicalize(state).terms] == [
        ((0, 0), (0j,)), ((1, 0), (1.0,))
    ]


def test_canonicalize_returns_a_canonical_state_as_it_is():
    # A state whose labels strictly increase and whose every |amp| is at
    # least DROP_TOL comes back as the same object: its columns are those
    # the label-dict reference gives, bit for bit.  A state that breaks one
    # condition takes the walk, and gets the reference's result.
    rng = random.Random("as it is")

    def state(beams, labels, amps=None):
        layout = RegisterLayout(party_dims=(3, 2), qubus_count=beams)
        if amps is None:
            amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in labels]
        return HybridState(layout, [
            Term(amp, lab, tuple(rng.choice(REGROUP_BEAMS) for _ in range(beams)))
            for amp, lab in zip(amps, labels)
        ])

    every_label = [(a, b) for a in range(3) for b in range(2)]
    below = math.nextafter(DROP_TOL, 0.0)
    for beams in (0, 1, 2):
        canonical = [
            state(beams, []),
            state(beams, [(2, 1)]),
            state(beams, [(0, 1), (1, 0), (2, 1)]),
            state(beams, every_label),
            # signed zeros and an amplitude exactly at DROP_TOL are kept as they are
            state(beams, [(0, 0), (1, 1), (2, 0)],
                  [complex(-0.0, 0.5), DROP_TOL, complex(0.25, -0.0)]),
        ]
        for s in canonical:
            assert canonicalize(s) is s
            assert repr(s) == repr(canonicalize_by_label_dict(s))
        walked = [
            state(beams, [(0, 0), (1, 1), (1, 1), (2, 0)]),  # a repeated label
            state(beams, [(0, 0), (1, 1), (1, 0), (2, 0)]),  # one descending pair
            state(beams, [(0, 0), (1, 1), (2, 0)], [0.5, below, 0.5j]),
            state(beams, [(1, 1)], [below]),
        ]
        for s in walked:
            out = canonicalize(s)
            assert out is not s
            assert repr(out) == repr(canonicalize_by_label_dict(s))
        for _ in range(100):
            labels = sorted(rng.sample(every_label, rng.randint(0, len(every_label))))
            s = _regroup_state(rng, beams, labels)
            out = canonicalize(s)
            assert repr(out) == repr(canonicalize_by_label_dict(s))
            if all(abs(amp) >= DROP_TOL for amp in s.amps):
                assert out is s


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_inner_of_a_state_with_itself_equals_the_general_loop_bit_for_bit():
    # <s|s> with no repeated label sums amp conj(amp) in index order and
    # looks up no label.  A copy of s is another object, so _inner(s, copy)
    # pairs each term with its twin through the general loop's beam
    # overlaps: the total and every class sum must agree to the bit, with
    # 0 to 3 beams, signed zeros and amplitudes below DROP_TOL.
    rng = random.Random("self pairs")
    every_label = [(a, b, c) for a in range(4) for b in range(3) for c in range(2)]
    pool = (0j, complex(-0.0, 0.5), complex(0.25, -0.0), 0.5 * DROP_TOL, -0.7j)
    for beams in range(4):
        layout = RegisterLayout(party_dims=(4, 3), ancilla_modes=2, qubus_count=beams)
        for _ in range(40):
            labels = rng.sample(every_label, rng.randint(1, len(every_label)))
            s = HybridState(layout, [
                Term(
                    rng.choice(pool) if rng.random() < 0.3
                    else complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                    lab,
                    tuple(complex(rng.gauss(0, 30), rng.gauss(0, 30)) for _ in range(beams)),
                )
                for lab in labels
            ])
            copy = HybridState(layout, s.terms)
            classes = [rng.randrange(5) for _ in labels]
            total, sums = _inner(s, s, classes=classes)
            want_total, want_sums = _inner(s, copy, classes=classes)
            assert _bits(total) == _bits(want_total)
            assert list(map(_bits, sums)) == list(map(_bits, want_sums))
            assert _bits(_inner(s, s)) == _bits(_inner(s, copy))
            assert state_norm_sq(s).hex() == want_total.real.hex()


def test_beamless_pairs_sum_as_if_times_exp_0j():
    # Two beamless states pair as conj(a_i) b_j, where the general weight
    # also multiplies by exp(0j) = 1 + 0j.  That product can turn a zero
    # part's sign, but a sum that starts at 0j never holds -0.0, so the
    # total and the class sums keep every bit of the pair-order reference.
    assert math.copysign(1.0, (complex(-0.0, -1.0) * cmath.exp(0j)).real) == 1.0
    rng = random.Random("beamless")
    layout = RegisterLayout(party_dims=(3,), ancilla_modes=2)
    pool = (complex(-0.0, -1.0), complex(1.0, -0.0), complex(-0.0, 0.0), -1j, 0.5)
    every_label = [(a, b) for a in range(3) for b in range(2)]
    for _ in range(200):

        def state():
            labels = [rng.choice(every_label) for _ in range(rng.randint(1, 8))]
            return HybridState(layout, [Term(rng.choice(pool), lab) for lab in labels])

        a, b = state(), state()
        classes = [rng.randrange(3) for _ in range(max(len(a.amps), len(b.amps)))]
        assert _bits(_inner(a, b)) == _bits(_inner_in_pair_order(a, b))
        total, sums = _inner(a, b, classes)
        want_total, want_sums = _inner_in_pair_order(a, b, classes)
        assert _bits(total) == _bits(want_total)
        assert list(map(_bits, sums)) == list(map(_bits, want_sums))


def test_inner_pairs_a_shared_label_column_index_by_index(monkeypatch):
    # Two states with equal label columns, one object or two, and no
    # repeated label pair term i with term i in C when a is b or neither has
    # a beam.  The total and the class sums must keep every bit of the
    # pair-order reference, with signed zeros.  A beam and a repeated label
    # take the general loop, with the same bits.
    paths = []

    def reduce(*args):
        paths.append("shared")
        return functools.reduce(*args)

    # the shared-column path is the one that sums with functools.reduce
    monkeypatch.setattr(state_module, "functools", types.SimpleNamespace(reduce=reduce))
    rng = random.Random("shared column")
    pool = (0j, complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0),
            complex(-0.0, -1.0), complex(1.0, -0.0), -0.7j)
    every_label = [(a, b, c) for a in range(4) for b in range(3) for c in range(2)]

    def amps(count):
        return tuple(
            rng.choice(pool) if rng.random() < 0.4
            else complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(count)
        )

    def check(a, b, shared):
        classes = [rng.randrange(4) for _ in a.amps]
        del paths[:]
        assert _bits(_inner(a, b)) == _bits(_inner_in_pair_order(a, b))
        total, sums = _inner(a, b, classes)
        want_total, want_sums = _inner_in_pair_order(a, b, classes)
        assert _bits(total) == _bits(want_total)
        assert list(map(_bits, sums)) == list(map(_bits, want_sums))
        assert paths == ["shared"] * 2 * shared

    for beams in (0, 2):
        layout = RegisterLayout(party_dims=(4, 3), ancilla_modes=2, qubus_count=beams)
        for _ in range(60):
            labels = rng.sample(every_label, rng.randint(1, len(every_label)))
            a = HybridState(layout, [
                Term(amp, lab, tuple(complex(rng.gauss(0, 2), rng.gauss(0, 2))
                                     for _ in range(beams)))
                for amp, lab in zip(amps(len(labels)), labels)
            ])
            b = _derive(a, amps=amps(len(labels)))
            twin = _derive(HybridState(layout, a.terms), amps=b.amps)
            assert b.labels is a.labels and twin.labels == a.labels
            assert twin.labels is not a.labels
            check(a, b, shared=not beams)
            check(a, twin, shared=not beams)
            del paths[:]
            assert _bits(_inner(a, a)) == _bits(_inner(a, HybridState(layout, a.terms)))
            # the copy pairs by index too when neither state has a beam
            assert paths == ["shared"] * (1 + (not beams))
        for _ in range(60):  # a repeated label
            labels = [rng.choice(every_label[:4]) for _ in range(rng.randint(2, 8))]
            a = HybridState(layout, [
                Term(amp, lab, tuple(rng.choice(pool) for _ in range(beams)))
                for amp, lab in zip(amps(len(labels)), labels)
            ])
            if len(set(labels)) < len(labels):
                check(a, _derive(a, amps=amps(len(labels))), shared=False)
                check(a, a, shared=False)


def test_merge_groups_of_an_index_subset_equal_the_greedy_rule():
    # _merge_groups(columns, index) groups the terms at the ascending indices
    # `index` as the greedy rule groups that sublist
    rng = random.Random("merge-subset")

    def greedy_of(beams, index):
        return [[index[p] for p in g] for g in greedy_merge_groups([beams[i] for i in index])]

    # tuples with one rounded key that land in one group are visited by
    # index, interleaved: x (a smaller key) creates the group, then w and u
    # (one key) join it, and that key's part is put back in index order
    x, u, w = 0.1 - 0.55e-12, 0.1 + 0.2e-12, 0.1 + 0.4e-12
    assert _beam_key(x) < _beam_key(u) == _beam_key(w)
    beams = [(w,), (x,), (5.0,), (u,), (w,), (u,), (x,)]
    assert merge_rows(beams) == greedy_merge_groups(beams) == [[1, 6, 0, 3, 4, 5], [2]]
    index = [0, 1, 3, 4, 5]
    assert merge_rows(beams, index) == greedy_of(beams, index) == [[1, 0, 3, 4, 5]]
    assert merge_rows(beams, [0, 3, 4]) == [[0, 3, 4]]
    cases = [beams, [(NEAR_U,), (NEAR_W,), (NEAR_V,), (NEAR_W,), (NEAR_U,), (NEAR_V,)]]
    for _ in range(300):
        width = rng.randint(1, 2)
        cases.append([
            tuple(rng.choice(REGROUP_BEAMS) for _ in range(width))
            for _ in range(rng.randint(0, 12))
        ])
    for beams in cases:
        for _ in range(4):
            index = sorted(rng.sample(range(len(beams)), rng.randint(0, len(beams))))
            assert merge_rows(beams, index) == greedy_of(beams, index), (beams, index)


# a herald column holds a few distinct values, each many times: exact
# repeats, 0j beside -0j, values within MERGE_TOL of 0 with one rounded key
# and with two, same-rounded-key near-ties, and beams 0.9 and 1.1
# tolerances from 500
HERALD_VALUES = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.3e-12, -0.2e-12,
    0.6e-12, -0.9e-12, 0.9e-12, 1.0, 500.0, 500.0 + 0.9 * MERGE_TOL * 500.0,
    500.0 + 1.1 * MERGE_TOL * 500.0, NEAR_U, NEAR_V, NEAR_W, 0.04 + 4.2j, 0.04 - 4.2j,
)
herald_pools = st.integers(1, 2).flatmap(
    lambda width: st.lists(
        st.tuples(*[st.sampled_from(HERALD_VALUES)] * width), min_size=1, max_size=5,
        unique_by=lambda u: tuple((q.real.hex(), q.imag.hex()) for q in u),
    )
)
herald_columns = herald_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(herald_columns, st.data())
def test_merge_groups_of_herald_shaped_columns_equal_the_greedy_rule(beams, data):
    assert merge_rows(beams) == greedy_merge_groups(beams)
    keep = data.draw(st.lists(st.booleans(), min_size=len(beams), max_size=len(beams)))
    index = list(itertools.compress(range(len(beams)), keep))
    greedy = greedy_merge_groups([beams[i] for i in index])
    assert merge_rows(beams, index) == [[index[p] for p in g] for g in greedy]


def test_merge_neglects_at_most_the_stated_overlap_phase():
    # MERGE_TOL's comment bounds the norm change of a merge of beams q and
    # q + d by 2 |a| |b| (|q| |d| + |d|^2 / 2); at 0.9 tolerances on |q| = 500
    # the overlap phase Im(conj(q) d) nearly reaches it
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    q, d = 500.0, 0.9j * MERGE_TOL * 500.0
    a, b = 0.5, 0.5j
    raw = HybridState(layout, (Term(a, (0,), (q,)), Term(b, (0,), (q + d,))))
    canon = canonicalize(raw)
    assert len(canon.terms) == 1
    assert state_norm_sq(raw) == pytest.approx(0.4999998875, abs=1e-15)
    assert state_norm_sq(canon) == pytest.approx(0.5, abs=1e-15)
    error = abs(state_norm_sq(raw) - state_norm_sq(canon))
    bound = 2 * abs(a) * abs(b) * (abs(q) * abs(d) + abs(d) ** 2 / 2)
    # 1e-15 is the rounding of the two norms
    assert 0.99 * bound <= error <= bound + 1e-15


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
    # the MERGE_TOL window and the free self-pair both need finite beams
    for bad in (complex("inf"), complex("nan"), complex(1.0, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            Term(1.0, (0,), (0.5, bad))
    with pytest.raises(TypeError):  # a label is never truncated to an int
        Term(1.0, (1.7,), (0.0,))


def test_layout_validation_and_slots():
    with pytest.raises(ValueError):
        RegisterLayout(party_dims=(0,))
    with pytest.raises(ValueError):
        RegisterLayout(qubus_count=-1)
    layout = RegisterLayout(party_dims=(3, 2), ancilla_modes=3, prep_modes=4)
    assert layout.party_slot(1) == 1
    with pytest.raises(TypeError, match="^party: "):  # it returned 0.5
        layout.party_slot(0.5)
    assert layout.ancilla_slot == 2
    assert layout.prep_spatial_slot == 3
    assert layout.prep_pol_slot == 4
    assert layout.work_mode == 3
    assert layout.label_dims() == (3, 2, 3, 4, 2)


def test_layout_counts_are_indexed():
    # a count is an int: a float is never truncated, a bool becomes its int
    for counts in ({"ancilla_modes": 2.5, "qubus_count": 1.5}, {"prep_modes": 2.0},
                   {"qubus_count": 1.0}):
        with pytest.raises(TypeError):
            RegisterLayout(**counts)
    layout = RegisterLayout(ancilla_modes=True, prep_modes=True, qubus_count=True)
    assert repr(layout) == (
        "RegisterLayout(party_dims=(), ancilla_modes=1, prep_modes=1, qubus_count=1)"
    )
    assert layout == RegisterLayout(ancilla_modes=1, prep_modes=1, qubus_count=1)


def test_layout_replace_shares_results_and_raises_every_time():
    layout = RegisterLayout(party_dims=(3,), qubus_count=2)
    fewer = layout.replace(qubus_count=1)
    assert layout.replace(qubus_count=1) is fewer
    assert fewer == RegisterLayout(party_dims=(3,), qubus_count=1)
    # a bool asks for the same layout, and the memo hands back an int count
    assert repr(layout.replace(qubus_count=True)) == repr(fewer)
    assert layout.replace(party_dims=(3,)) == layout
    assert layout.replace(party_dims=[3, 2]) == RegisterLayout(party_dims=(3, 2), qubus_count=2)
    # a bad change equal to a cached good one still raises, every time
    for _ in range(2):
        with pytest.raises(TypeError):
            layout.replace(qubus_count=1.0)
        with pytest.raises(TypeError):
            layout.replace(party_dims=(3.0,))
        with pytest.raises(ValueError):
            layout.replace(qubus_count=-1)
        with pytest.raises(TypeError):
            layout.replace(beams=1)


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
    data["terms"][0]["labels"] = [1.7, 0]  # would truncate onto label 1
    with pytest.raises(TypeError):
        state_from_dict(data)


def test_state_from_dict_coerces_both_parts_of_each_pair():
    layout = RegisterLayout(party_dims=(2,), qubus_count=1)
    data = state_to_dict(HybridState(layout, (Term(0.5, (1,), (2.0 - 1j,)),)))
    term = data["terms"][0]
    for key, bad in (("amp", [10**400, 0]), ("amp", [0, -(10**400)]), ("qubus", [[1.0, 10**400]])):
        with pytest.raises(ValueError, match=f"^{key} is beyond float range$"):
            state_from_dict({**data, "terms": [{**term, key: bad}]})
    # a pair holds exactly two parts: none is dropped or made up
    for key, bad in (
        ("amp", [0.5, 0.0, 9.0]), ("amp", [0.5]), ("qubus", [[2.0, -1.0, 0.0]]), ("qubus", [[2.0]])
    ):
        with pytest.raises(ValueError, match=f"^{key} must be a \\[re, im\\] pair$"):
            state_from_dict({**data, "terms": [{**term, key: bad}]})
    with pytest.raises(TypeError, match="^amp: "):
        state_from_dict({**data, "terms": [{**term, "amp": ["0.5", 0]}]})
    assert state_from_dict(data).terms == (Term(0.5, (1,), (2.0 - 1j,)),)


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


def _log_lists(seed, count):
    """Seeded lists of 1-70 logs: ties, -inf, values down to -2e5 and the
    shape of the closed form's terms, log(2 (n - d) / n^2) - energy."""
    rng = random.Random(seed)
    for _ in range(count):
        logs = []
        for _ in range(rng.randint(1, 70)):
            r = rng.random()
            if r < 0.1 and logs:
                logs.append(rng.choice(logs))
            elif r < 0.15:
                logs.append(-math.inf)
            elif r < 0.45:
                logs.append(rng.uniform(-2e5, 0.0))
            elif r < 0.8:
                n = rng.randint(2, 64)
                d = rng.randint(1, n - 1)
                logs.append(math.log(2.0 * (n - d) / n**2) - rng.uniform(0.0, 1e3))
            else:
                logs.append(rng.uniform(-30.0, 3.0))
        yield logs


def test_logaddexp_reduce_equals_numpy_bit_for_bit():
    for logs in _log_lists(20261018, 4000):
        got = _logaddexp_reduce(logs)
        want = float(np.logaddexp.reduce(logs))
        assert got.hex() == want.hex(), logs
    for logs in ([-math.inf], [-math.inf] * 3, [0.0, 0.0], [-2e5, -2e5, -2e5],
                 [-math.inf, -1.0], [-1.0, -math.inf], [7.5]):
        assert _logaddexp_reduce(logs).hex() == float(np.logaddexp.reduce(logs)).hex()


def _library_states():
    """States the library builds from columns: a herald output with one
    beam left, a pre-herald state with four, and a report's final state."""
    from qubus_forge.heralding import DetectorModel, herald_vacuum
    from qubus_forge.protocols import (
        ProtocolSpec,
        _attach_party,
        _couple,
        generate,
        prepare_single_photon_qudit,
    )

    spec = ProtocolSpec.balanced(4, 2, shifts=(0, 1), theta=0.01, alpha=500.0)
    pre, beam = _couple(
        _attach_party(prepare_single_photon_qudit(4), spec.coeffs[0], 500.0 + 3j), 0, 0.01
    )
    heralded = herald_vacuum(pre, beam, DetectorModel()).heralded_state
    second, _ = _couple(_attach_party(heralded, spec.coeffs[1], 500.0), 1, 0.01)
    return [heralded, second, generate(spec).final_state]


def _terms_of_columns(state):
    """Public Terms rebuilt from a state's columns, without ``.terms``."""
    rows = zip(*state.beams) if state.beams else [()] * len(state.amps)
    return tuple(Term(a, lab, q) for a, lab, q in zip(state.amps, state.labels, rows))


def test_columnar_state_equals_the_state_built_from_terms():
    # a state is its layout and its columns, with no cached Term tuple
    assert HybridState.__slots__ == ("_layout", "_amps", "_labels", "_beams")
    for lib in _library_states():
        public = HybridState(lib.layout, _terms_of_columns(lib))
        assert lib == public and public == lib
        assert hash(lib) == hash(public)
        assert repr(lib) == repr(public)
        assert lib.terms == public.terms
        assert (public.amps, public.labels, public.beams) == (lib.amps, lib.labels, lib.beams)
        changed = HybridState(
            public.layout,
            (Term(public.terms[0].amp * 1j, public.terms[0].labels, public.terms[0].qubus),)
            + public.terms[1:],
        )
        assert changed != lib and lib != changed
        assert lib != HybridState(public.layout, public.terms[1:])
        assert (lib == lib.layout) is False


def test_columnar_state_round_trips_and_stays_read_only():
    import pickle

    from qubus_forge.protocols import ProtocolSpec, generate

    for lib in _library_states():
        assert HybridState(lib.layout, lib.terms) == lib
        assert state_from_dict(state_to_dict(lib)) == lib
        assert repr(state_from_dict(state_to_dict(lib))) == repr(lib)
        copy = pickle.loads(pickle.dumps(lib))
        assert copy == lib and repr(copy) == repr(lib)
        for name in ("layout", "amps", "labels", "beams", "terms"):
            with pytest.raises(AttributeError):
                setattr(lib, name, ())
    spec = ProtocolSpec.balanced(3, 3, shifts=(0, 1, 2), theta=0.01, alpha=500.0)
    report = generate(spec)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert repr(copy) == repr(report)


def test_first_terms_access_from_many_threads_gives_equal_tuples():
    # .terms builds its tuple from the columns on each access; threads
    # reading it at once must all see the same terms
    import sys
    import threading

    from qubus_forge.protocols import (
        ProtocolSpec,
        _attach_party,
        _couple,
        prepare_single_photon_qudit,
    )

    spec = ProtocolSpec.balanced(24, 2, shifts=(0, 1), theta=0.01, alpha=500.0)
    expected = None
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared, _ = _couple(
                _attach_party(prepare_single_photon_qudit(24), spec.coeffs[0], 500.0), 0, 0.01
            )
            if expected is None:
                expected = _terms_of_columns(shared)
            barrier = threading.Barrier(8, timeout=30)
            seen = [None] * 8

            def first_access(k):
                barrier.wait()
                seen[k] = shared.terms

            threads = [threading.Thread(target=first_access, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert all(terms == expected for terms in seen)
            assert shared.terms == expected
    finally:
        sys.setswitchinterval(old_interval)


def test_derive_checks_a_repeated_beam_column_object_once(monkeypatch):
    # A stage's fresh (alpha, alpha) pair is one column object given twice
    # in a row: _derive checks it for finiteness once.  A non-finite column
    # given twice raises with the message a single one gets.
    checked = []

    def isfinite(z):
        checked.append(z)
        return cmath.isfinite(z)

    monkeypatch.setattr(state_module, "cmath", types.SimpleNamespace(isfinite=isfinite))
    layout = RegisterLayout(party_dims=(3,), qubus_count=2)
    source = _derive(HybridState(RegisterLayout(party_dims=(3,)), [
        Term(0.6, (0,)), Term(0.8, (2,))
    ]), layout=layout, beams=((1j, 2.0),) * 2)
    checked.clear()
    column = (3.0 + 0j, -4.0 + 0j)
    derived = _derive(source, beams=(column, column))
    assert derived.beams == (column, column) and derived.beams[1] is column
    assert len(checked) == 2
    # only the same object is skipped: an equal copy is checked again
    checked.clear()
    _derive(source, beams=(column, tuple(list(column))))
    assert len(checked) == 4
    checked.clear()
    _derive(source, beams=(column, (5.0 + 0j, 6.0 + 0j)))
    assert len(checked) == 4
    for bad in ((complex("nan"), 1.0), (1.0, complex("inf"))):
        checked.clear()
        with pytest.raises(ValueError, match="^qubus amplitudes must be finite$"):
            _derive(source, beams=(bad, bad))
        assert len(checked) == 1 + (bad[0] == 1.0)
    # a column carried over from the source is not checked again
    checked.clear()
    _derive(source, beams=source.beams)
    assert checked == []
