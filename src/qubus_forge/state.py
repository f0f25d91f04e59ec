"""Hybrid discrete/continuous states for coherent-bus circuit simulation.

A :class:`HybridState` is a finite superposition of :class:`Term` objects.
Each term carries a complex amplitude, one integer label per discrete
register (party qudits, the spatial register of a single photon, an optional
preparation register) and one complex coherent amplitude per qubus beam.

Coherent beams are tracked symbolically by their amplitude, never by
Fock-space truncation: every optical element supported here maps coherent
states to coherent states, so the representation stays exact and bright
beams (|alpha| ~ 500) cost nothing.  Overlaps such as <0|alpha>, whose
magnitude is e^-125000 for such beams, are returned in log form
(:class:`LogComplex`) because they underflow any fixed-precision complex.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

# The one norm convention; written to serialized states under "norm_mode"
# so the output schema names it.
GRAM_EXACT = "gram_exact"

# Two qubus amplitudes are the same beam value when they agree to this
# relative tolerance (absolute near zero).  Double-precision phase
# arithmetic drifts by ~1e-15 per operation; 1e-12 absorbs that without
# conflating physically distinct phases, whose smallest separation at
# bright-beam working points is of order |alpha| * theta.
MERGE_TOL = 1e-12

# Terms with |amp| below this are representational noise and are dropped.
DROP_TOL = 1e-14

# Polarization labels of the preparation register.
POL_H = 0
POL_V = 1


@dataclass(frozen=True)
class LogComplex:
    """A complex value z stored as (log|z|, arg z).

    log_magnitude is -inf for z = 0.  Converting back to complex is exact
    whenever the magnitude is representable in double precision.
    """

    log_magnitude: float
    phase: float

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return cls(float("-inf"), 0.0)
        return cls(math.log(abs(z)), cmath.phase(z))

    def to_complex(self) -> complex:
        if self.log_magnitude == float("-inf"):
            return 0j
        return cmath.exp(complex(self.log_magnitude, self.phase))

    def abs_sq(self) -> float:
        """|z|^2, underflowing gracefully to 0.0 below double range."""
        return math.exp(2.0 * self.log_magnitude)


def coherent_overlap(a: complex, b: complex) -> LogComplex:
    """Inner product <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b) of two
    coherent states, in log form.

    The real exponent equals -|a - b|^2 / 2 identically and is evaluated in
    that form: it avoids the cancellation the textbook expression suffers
    for bright, nearly parallel amplitudes, and makes
    |<a|b>|^2 = exp(-|a - b|^2) hold exactly.
    """
    a = complex(a)
    b = complex(b)
    d = a - b
    log_mag = -0.5 * (d.real * d.real + d.imag * d.imag)
    return LogComplex(log_mag, (a.conjugate() * b).imag)


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
        object.__setattr__(self, "party_dims", tuple(int(d) for d in self.party_dims))
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
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        object.__setattr__(self, "qubus", tuple(complex(q) for q in self.qubus))


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

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def with_terms(self, terms) -> "HybridState":
        return dataclasses.replace(self, terms=tuple(terms))


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
    """
    groups: list[list[int]] = []
    order = sorted(range(len(beams)), key=lambda i: tuple(map(_beam_key, beams[i])))
    for i in order:
        for g in groups:
            if _tuples_close(beams[g[0]], beams[i]):
                g.append(i)
                break
        else:
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
            amp = same[g[0]].amp
            for i in g[1:]:
                amp += same[i].amp
            if abs(amp) >= DROP_TOL:
                merged.append(Term(amp, labels, same[g[0]].qubus))
    return state.with_terms(merged)


def _abs_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _pair_weight(t: Term, u: Term) -> complex:
    """conj(amp_t) amp_u times the product of per-beam coherent overlaps."""
    log_mag = 0.0
    phase = 0.0
    for qa, qb in zip(t.qubus, u.qubus):
        ov = coherent_overlap(qa, qb)
        log_mag += ov.log_magnitude
        phase += ov.phase
    return t.amp.conjugate() * u.amp * cmath.exp(complex(log_mag, phase))


def _gram_sum(terms) -> float:
    """Squared norm of canonical ``terms``: amplitudes of equal-label terms
    interfere through the full product of coherent overlaps (the Gram
    matrix of their beam tuples); distinct labels are orthogonal."""
    groups: dict[tuple[int, ...], list[Term]] = {}
    for t in terms:
        groups.setdefault(t.labels, []).append(t)
    total = 0.0
    for members in groups.values():
        for i, t in enumerate(members):
            total += _abs_sq(t.amp)
            for u in members[i + 1 :]:
                total += 2.0 * _pair_weight(t, u).real
    return total


def state_norm_sq(state: HybridState) -> float:
    """Physical squared norm of a hybrid state (see :func:`_gram_sum`)."""
    if not state.terms:
        raise ValueError("empty state")
    return _gram_sum(canonicalize(state).terms)


def inner_product(a: HybridState, b: HybridState) -> complex:
    """<a|b> with exact coherent-state overlaps.

    Discrete labels contribute 0/1; qubus beams contribute their full
    coherent overlap.
    """
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    if not a.terms or not b.terms:
        raise ValueError("empty state")
    by_labels: dict[tuple[int, ...], list[Term]] = {}
    for u in b.terms:
        by_labels.setdefault(u.labels, []).append(u)
    total = 0j
    for t in a.terms:
        for u in by_labels.get(t.labels, ()):
            total += _pair_weight(t, u)
    return total


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
    new_terms = [
        Term(t.amp, t.labels, t.qubus[:beam] + t.qubus[beam + 1 :])
        for t in state.terms
    ]
    return HybridState(new_layout, tuple(new_terms))


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
