"""Hybrid discrete/continuous states for coherent-bus circuit simulation.

A :class:`HybridState` is a finite superposition of :class:`Term` objects.
Each term carries a complex amplitude, one integer label per discrete
register (party qudits, the spatial register of a single photon, an optional
preparation register) and one complex coherent amplitude per qubus beam.

Coherent beams are tracked symbolically by their amplitude, never by
Fock-space truncation: every optical element supported here maps coherent
states to coherent states, so the representation stays exact and bright
beams (|alpha| ~ 500) cost nothing.  Overlaps such as <0|alpha>, whose
magnitude is e^-125000 for such beams, are returned as complex logarithms
because they underflow any fixed-precision complex.
"""

from __future__ import annotations

import bisect
import cmath
import dataclasses
import math
import operator
from dataclasses import dataclass

# The one norm convention; written to serialized states under "norm_mode"
# so the output schema names it.
GRAM_EXACT = "gram_exact"

# Two qubus amplitudes are the same beam value when they agree to this
# relative tolerance (absolute near zero).  Double-precision phase
# arithmetic drifts by ~1e-15 per operation; 1e-12 absorbs that without
# conflating physically distinct phases, whose smallest separation at
# bright-beam working points is of order |alpha| * theta.  A merge keeps
# the first beam q and drops the other's offset d, so for amplitudes a and b
# it neglects the overlap phase Im(conj(q) d) <= |q| |d| and the decay
# |d|^2 / 2: the squared norm moves by at most 2 |a| |b| (|q| |d| + |d|^2 / 2).
# Protocol states never come near that, since their beams drift only
# ~1e-15 relative.
MERGE_TOL = 1e-12

# Largest |alpha| a protocol or sweep accepts.  The offset-0 herald beam,
# alpha (1 - e^{i phi} e^{-i phi}) / sqrt(2), is vacuum only up to rounding:
# a residual of up to ~0.8 ulp of |alpha| (measured over 300 random specs,
# n 2..32).  It must stay below MERGE_TOL's absolute floor of 1e-12, or the
# success branch no longer heralds as vacuum; 1e3 keeps a factor ~5 margin.
ALPHA_MAX = 1e3

# Terms with |amp| below this are representational noise and are dropped.
DROP_TOL = 1e-14

# A squared norm or probability within this of its bound counts as on it.
# Every element is unitary, so norms drift only by rounding (~1e-16 per
# operation); 1e-9 absorbs that over any circuit built here while still
# catching a state that was never normalized.
NORM_TOL = 1e-9

# Polarization labels of the preparation register.
POL_H = 0
POL_V = 1


def coherent_overlap(a: complex, b: complex) -> complex:
    """Logarithm of the inner product <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)
    of two coherent states.

    The real part equals -|a - b|^2 / 2 identically and is evaluated in that
    form: it avoids the cancellation the textbook expression suffers for
    bright, nearly parallel amplitudes, and makes |<a|b>|^2 = exp(-|a - b|^2)
    hold exactly.  The imaginary part is Im(conj(a) b).
    """
    a = complex(a)
    b = complex(b)
    d = a - b
    return complex(-0.5 * (d.real * d.real + d.imag * d.imag), (a.conjugate() * b).imag)


@dataclass(frozen=True)
class RegisterLayout:
    """Declares the discrete registers and qubus beams a state lives on.

    Label order inside :attr:`Term.labels`: one label per party qudit, then
    the spatial label of the single-photon register (present when
    ``ancilla_modes > 0``), then the (spatial, polarization) pair of the
    preparation register (present when ``prep_modes > 0``).  The highest
    preparation mode, ``prep_modes - 1``, is the "work" mode that the
    preparation cascade acts on.
    """

    party_dims: tuple[int, ...] = ()
    ancilla_modes: int = 0
    prep_modes: int = 0
    qubus_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "party_dims", tuple(map(operator.index, self.party_dims)))
        if any(d < 1 for d in self.party_dims):
            raise ValueError("party dimensions must be >= 1")
        if self.ancilla_modes < 0 or self.prep_modes < 0 or self.qubus_count < 0:
            raise ValueError("register counts must be >= 0")

    @property
    def num_parties(self) -> int:
        return len(self.party_dims)

    @property
    def has_ancilla(self) -> bool:
        return self.ancilla_modes > 0

    @property
    def has_prep(self) -> bool:
        return self.prep_modes > 0

    @property
    def work_mode(self) -> int:
        if not self.has_prep:
            raise ValueError("layout has no preparation register")
        return self.prep_modes - 1

    def party_slot(self, party: int) -> int:
        if not 0 <= party < self.num_parties:
            raise ValueError(f"party index {party} out of range")
        return party

    @property
    def ancilla_slot(self) -> int:
        if not self.has_ancilla:
            raise ValueError("layout has no single-photon spatial register")
        return self.num_parties

    @property
    def prep_spatial_slot(self) -> int:
        if not self.has_prep:
            raise ValueError("layout has no preparation register")
        return self.num_parties + (1 if self.has_ancilla else 0)

    @property
    def prep_pol_slot(self) -> int:
        return self.prep_spatial_slot + 1

    def label_dims(self) -> tuple[int, ...]:
        dims = list(self.party_dims)
        if self.has_ancilla:
            dims.append(self.ancilla_modes)
        if self.has_prep:
            dims.extend((self.prep_modes, 2))
        return tuple(dims)

    def replace(self, **changes) -> "RegisterLayout":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Term:
    """One labelled branch: amplitude x discrete labels x coherent beams."""

    amp: complex
    labels: tuple[int, ...]
    qubus: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "amp", complex(self.amp))
        object.__setattr__(self, "labels", tuple(map(operator.index, self.labels)))
        object.__setattr__(self, "qubus", tuple(map(complex, self.qubus)))
        if not all(map(cmath.isfinite, self.qubus)):
            raise ValueError("qubus amplitudes must be finite")


@dataclass(frozen=True)
class HybridState:
    """Finite superposition over discrete labels tensored with coherent beams.

    States are immutable values; all operations on them are pure functions
    returning new states.  An empty term list is allowed only as the flagged
    result of a failed herald; norm computations reject it.
    """

    layout: RegisterLayout
    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        dims = self.layout.label_dims()
        for t in self.terms:
            if len(t.labels) != len(dims):
                raise ValueError(
                    f"term has {len(t.labels)} labels, layout declares {len(dims)}"
                )
            for lab, dim in zip(t.labels, dims):
                if not 0 <= lab < dim:
                    raise ValueError(f"label {lab} out of range for dimension {dim}")
            if len(t.qubus) != self.layout.qubus_count:
                raise ValueError(
                    f"term has {len(t.qubus)} qubus amplitudes, layout declares "
                    f"{self.layout.qubus_count}"
                )
            if not (math.isfinite(t.amp.real) and math.isfinite(t.amp.imag)):
                raise ValueError("term amplitude must be finite")

    def with_terms(self, terms) -> "HybridState":
        return dataclasses.replace(self, terms=tuple(terms))


# The public constructors above validate every field.  The library's own
# operations build states from states that were already valid, with labels
# drawn from range(dim) and layouts derived with the shape they declare, so
# they go through the two builders below, which skip that work.  The one
# property that depends on the data, finiteness, is checked where a new
# number is computed: here for amplitudes, in the elements for beams.
_new = object.__new__
_set = object.__setattr__


def _term(amp: complex, labels: tuple[int, ...], qubus: tuple[complex, ...] = ()) -> Term:
    """A :class:`Term` from a built-in ``complex`` amplitude, ``int`` labels
    and ``complex`` beams, without its field checks; a non-finite amplitude
    is still rejected."""
    if not cmath.isfinite(amp):
        raise ValueError("term amplitude must be finite")
    t = _new(Term)
    _set(t, "amp", amp)
    _set(t, "labels", labels)
    _set(t, "qubus", qubus)
    return t


def _state(layout: RegisterLayout, terms: tuple[Term, ...]) -> HybridState:
    """A :class:`HybridState` from terms that already fit ``layout``, without
    the per-term checks."""
    s = _new(HybridState)
    _set(s, "layout", layout)
    _set(s, "terms", terms)
    return s


def qubus_close(u: complex, v: complex, tol: float = MERGE_TOL) -> bool:
    """Whether two beam amplitudes are the same value within merge tolerance."""
    return abs(u - v) <= tol * max(1.0, abs(u), abs(v))


def _tuples_close(p, q) -> bool:
    return all(map(qubus_close, p, q))


def _beam_key(q: complex) -> tuple[float, float]:
    """Sort key of one beam amplitude: real and imaginary parts rounded to
    the 12 decimals of :data:`MERGE_TOL`."""
    return (round(q.real, 12), round(q.imag, 12))


def _merge_groups(beams) -> list[list[int]]:
    """The one rule for "these beam tuples are the same value".

    Indices into ``beams`` are visited in rounded-beam order (ties keep
    input order).  Each joins the first group whose first member agrees with
    it within :data:`MERGE_TOL`, else starts a new group.  Groups come in
    creation order and list their members in visit order, so a group's
    first index is its representative.

    Only representatives whose first beam has a real part within
    w = MERGE_TOL max(1, |u0|) / (1 - MERGE_TOL) of the visited u0 are
    tested: :func:`qubus_close` accepts no pair farther apart, so the first
    match in creation order is the same as over all groups (the bound
    needs finite beams, which every :class:`Term` has).
    """
    if len(beams) <= 1 or not beams[0]:
        return [list(range(len(beams)))] if beams else []
    order = sorted(range(len(beams)), key=lambda i: tuple(map(_beam_key, beams[i])))
    groups: list[list[int]] = []
    reps: list[tuple[float, int]] = []  # (Re first beam, group index), sorted
    for i in order:
        u = beams[i]
        u0 = u[0]
        # qubus_close accepts |Re(u0 - v0)| up to MERGE_TOL max(1, |u0|) /
        # (1 - MERGE_TOL); 1e-3 of that more covers rounding (~1e-16 |u0|).
        w = MERGE_TOL * max(1.0, abs(u0)) / (1.0 - MERGE_TOL) * 1.001
        lo = bisect.bisect_left(reps, (u0.real - w, -1))
        hi = bisect.bisect_right(reps, (u0.real + w, len(groups)))
        for k in sorted(k for _, k in reps[lo:hi]):
            if _tuples_close(beams[groups[k][0]], u):
                groups[k].append(i)
                break
        else:
            bisect.insort(reps, (u0.real, len(groups)))
            groups.append([i])
    return groups


def canonicalize(state: HybridState) -> HybridState:
    """Merge equal-label, equal-qubus terms, drop negligible ones, sort.

    Terms whose labels match and whose qubus amplitudes agree within
    :data:`MERGE_TOL` are summed into one.  Terms with |amp| < :data:`DROP_TOL`
    are removed.  Idempotent; the output term order is a deterministic sort
    on (labels, rounded qubus).
    """
    by_labels: dict[tuple[int, ...], list[Term]] = {}
    for t in state.terms:
        by_labels.setdefault(t.labels, []).append(t)
    merged = []
    for labels in sorted(by_labels):
        same = by_labels[labels]
        for g in _merge_groups([t.qubus for t in same]):
            first = same[g[0]]
            amp = first.amp
            for i in g[1:]:
                amp += same[i].amp
            if abs(amp) >= DROP_TOL:
                # a one-member group keeps its term as it is
                merged.append(first if len(g) == 1 else _term(amp, labels, first.qubus))
    return _state(state.layout, tuple(merged))


def _abs_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _pair_weight(t: Term, u: Term) -> complex:
    """conj(amp_t) amp_u times the product of per-beam coherent overlaps."""
    log_ov = 0j
    for qa, qb in zip(t.qubus, u.qubus):
        log_ov += coherent_overlap(qa, qb)
    return t.amp.conjugate() * u.amp * cmath.exp(log_ov)


def _inner(a_terms, b_terms) -> complex:
    """<a|b> over two term lists: equal-label terms interfere through the
    full product of coherent overlaps, distinct labels are orthogonal.

    Needs no canonical form: equal beams overlap with weight exactly 1, so
    a duplicated (labels, beams) pair counts as its merged sum, and beams
    that :func:`canonicalize` would merge are summed with their true overlap.
    """
    by_labels: dict[tuple[int, ...], list[Term]] = {}
    for u in b_terms:
        by_labels.setdefault(u.labels, []).append(u)
    total = 0j
    for t in a_terms:
        for u in by_labels.get(t.labels, ()):
            # _pair_weight(t, t) is exactly this: every self-overlap of a
            # finite beam is -0.0 + 0.0j, so its exponential is 1 + 0j.
            total += complex(_abs_sq(t.amp), 0.0) if u is t else _pair_weight(t, u)
    return total


def state_norm_sq(state: HybridState) -> float:
    """Physical squared norm <state|state> of a hybrid state."""
    if not state.terms:
        raise ValueError("empty state")
    return _inner(state.terms, state.terms).real


def inner_product(a: HybridState, b: HybridState) -> complex:
    """<a|b> with exact coherent-state overlaps.

    Discrete labels contribute 0/1; qubus beams contribute their full
    coherent overlap.
    """
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    if not a.terms or not b.terms:
        raise ValueError("empty state")
    return _inner(a.terms, b.terms)


def overlap_sq(a: HybridState, b: HybridState) -> float:
    """Normalized squared overlap |<a|b>|^2 / (|a|^2 |b|^2).

    Insensitive to the global phase and normalization of either state.
    """
    ip = inner_product(a, b)
    return _abs_sq(ip) / (state_norm_sq(a) * state_norm_sq(b))


def drop_uniform_beam(state: HybridState, beam: int) -> HybridState:
    """Remove a qubus beam whose amplitude is the same in every term.

    A uniform beam is an unentangled spectator factor, so removing it leaves
    the physics untouched.  Raises if the beam differs between terms.
    """
    if not 0 <= beam < state.layout.qubus_count:
        raise ValueError(f"beam index {beam} out of range")
    if state.terms:
        ref = state.terms[0].qubus[beam]
        for t in state.terms:
            if not qubus_close(t.qubus[beam], ref):
                raise ValueError("beam is entangled with the rest of the state")
    new_layout = state.layout.replace(qubus_count=state.layout.qubus_count - 1)
    return _state(new_layout, tuple(
        _term(t.amp, t.labels, t.qubus[:beam] + t.qubus[beam + 1 :])
        for t in state.terms
    ))


def state_to_dict(state: HybridState) -> dict:
    """JSON-ready dictionary form of a state."""
    return {
        "layout": {
            "party_dims": list(state.layout.party_dims),
            "ancilla_modes": state.layout.ancilla_modes,
            "prep_modes": state.layout.prep_modes,
            "qubus_count": state.layout.qubus_count,
        },
        "norm_mode": GRAM_EXACT,
        "terms": [
            {
                "amp": [t.amp.real, t.amp.imag],
                "labels": list(t.labels),
                "qubus": [[q.real, q.imag] for q in t.qubus],
            }
            for t in state.terms
        ],
    }


def state_from_dict(data: dict) -> HybridState:
    """Inverse of :func:`state_to_dict`.

    Raises ValueError when ``norm_mode`` names anything but ``gram_exact``.
    """
    if data["norm_mode"] != GRAM_EXACT:
        raise ValueError(f"unknown norm mode {data['norm_mode']!r}")
    lay = data["layout"]
    layout = RegisterLayout(
        party_dims=tuple(lay["party_dims"]),
        ancilla_modes=lay["ancilla_modes"],
        prep_modes=lay["prep_modes"],
        qubus_count=lay["qubus_count"],
    )
    terms = tuple(
        Term(
            complex(t["amp"][0], t["amp"][1]),
            tuple(t["labels"]),
            tuple(complex(q[0], q[1]) for q in t["qubus"]),
        )
        for t in data["terms"]
    )
    return HybridState(layout, terms)
