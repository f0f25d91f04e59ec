"""Hybrid discrete/continuous states for coherent-bus circuit simulation.

A :class:`HybridState` is a finite superposition of terms.  Each term
carries a complex amplitude, one integer label per discrete register (party
qudits, the spatial register of a single photon, an optional preparation
register) and one complex coherent amplitude per qubus beam.

A state stores its terms as parallel columns: ``amps`` (one amplitude per
term), ``labels`` (one label tuple per term) and ``beams`` (one column per
qubus beam, each holding that beam's amplitude in every term).  An operation
rewrites only the columns it changes and passes the others on: a phase
rotation of one beam builds one new beam column and shares the amplitudes,
labels and other beams with its input.  :class:`Term` and
``HybridState(layout, terms)`` are the validating public constructors, and
``state.terms`` gives the same state back as :class:`Term` objects.

Every state the library derives from another is built by ``_derive``
from one that is already valid: the elements, the herald, feedforward
and the protocol stages hand it the columns they compute, and it checks
each new amplitude or beam column for finiteness, once.  Columns carried
over from the source are not checked again.  The removal of a qubus beam,
with which the herald also cuts out and rescales its surviving terms, and
the beam-index check live here too.

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
import functools
import itertools
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

# Largest |theta| a protocol or sweep accepts.  A stage computes each XPM
# phase as theta * units before cmath.exp, so the phase's rounding grows with
# theta: past ~1e3 the simulated silent-failure probability drifts off the
# closed form by more than 1e-10 relative (worst 5.7e-10 for theta in 1e3-1e6,
# 5.1e-4 in 1e9-1e12, over 300 random sweep points per decade), where below
# 2 pi it stays within 3.5e-15.  The phase is 2 pi-periodic, so 2 pi loses
# nothing physical; the paper's weak nonlinearity has theta << 1.
THETA_MAX = 2 * math.pi

# Largest dimension n a protocol, sweep or preparation accepts.  A stage
# holds ~n^2 terms, and each doubling of n costs it ~4x in time and up to
# ~3.5x in memory: at n = 1024 sweep_point(500.0, 0.01, 1.0, 1024) takes
# 2.1-2.7 s and a peak of 266 MB, and a two-party generate 6.3 s and 397 MB
# (one cold call in a fresh process pinned to one CPU, 2-CPU Xeon VM,
# CPython 3.11).  Past that a run does not finish in useful time, and with
# no bound the check of every offset d < n runs for as long as n is large.
# The paper's qudits have n <= 5.
N_MAX = 1024

# Largest party count M a protocol or the CLI accepts.  A report keeps every
# stage's heralded state, n terms of up to M labels each, so time and memory
# grow as n M^2: at n = 2 a generate takes 0.35 s and +13 MB at M = 800 and
# 0.9 s and +51 MB at M = 1600 (2-CPU Xeon VM, CPython 3.11), ~40 s and ~2 GB
# at M = 10^4 by extrapolation.  The paper's schemes use a few parties.
PARTIES_MAX = 1024

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


# The input policy: a public entry passes each number it is given through one
# of these coercers before it builds anything, so a rejection names its argument.
def _integer(value, name: str) -> int:
    """value as an int: a bool is its int, a float is never truncated."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


def _number(convert, value, name: str):
    """convert(value) for convert float, complex or an isfinite: an int beyond
    float range raises ValueError, and a value that is no number TypeError."""
    try:
        if isinstance(value, (str, bytes, bytearray)):  # float() and complex() parse them
            raise TypeError(f"expected a number, got {type(value).__name__}")
        return convert(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond float range") from None
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


def _count(value, name: str) -> int:
    """value as an int from 1 to its bound (:data:`N_MAX` for "n", :data:`PARTIES_MAX`
    for "parties"), before anything of that size, or a tuple of it, is built."""
    value = _integer(value, name)
    if value < 1:
        raise ValueError(f"{'dimension' if name == 'n' else 'party count'} must be >= 1")
    bound, what = (N_MAX, "dimension n") if name == "n" else (PARTIES_MAX, "party count")
    if value > bound:
        raise ValueError(f"{what} must be <= {bound}")
    return value


def _shown(x, show=repr) -> str:
    """show(x), but an int of 18 or more digits (inside float range where it
    is used) as x.xxxe+yy."""
    return f"{x:.3e}" if isinstance(x, int) and abs(x) >= 10**17 else show(x)


def _check_working_point(n: int, theta: float, alpha: complex) -> None:
    """Reject a coerced dimension, XPM phase and beam amplitude at which the
    vacuum herald cannot tell success from failure."""
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if not (math.isfinite(theta) and cmath.isfinite(alpha)):
        raise ValueError("theta and alpha must be finite")
    if abs(theta) > THETA_MAX:
        raise ValueError("|theta| must be <= 2 pi")
    if abs(alpha) > ALPHA_MAX:
        raise ValueError(f"|alpha| must be <= {ALPHA_MAX:g}")
    # Offset d puts amplitude alpha (1 - e^{i d theta}) / sqrt(2) on the
    # herald beam; if that is vacuum, a failure branch is heralded too.
    for d in range(1, n):
        beam = alpha * (1 - cmath.exp(1j * d * theta)) / math.sqrt(2)
        if qubus_close(beam, 0.0):
            raise ValueError(
                f"theta = {theta!r} with alpha = {alpha!r} leaves the "
                f"offset-{d} failure branch at vacuum on the herald beam"
            )


def coherent_overlap(a: complex, b: complex) -> complex:
    """Logarithm of the inner product <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b)
    of two coherent states.

    The real part equals -|a - b|^2 / 2 identically and is evaluated in that
    form: it avoids the cancellation the textbook expression suffers for
    bright, nearly parallel amplitudes, and makes |<a|b>|^2 = exp(-|a - b|^2)
    hold exactly.  The imaginary part is Im(conj(a) b).
    """
    a, b = _number(complex, a, "a"), _number(complex, b, "b")
    d = a - b
    log = complex(-0.5 * (d.real * d.real + d.imag * d.imag), (a.conjugate() * b).imag)
    if not cmath.isfinite(log):  # also when a product overflows, as one can past ~1e154
        raise ValueError("a, b and their log overlap must be finite")
    return log


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
        dims = tuple([_integer(d, "party_dims") for d in self.party_dims])
        object.__setattr__(self, "party_dims", dims)
        for name in ("ancilla_modes", "prep_modes", "qubus_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
            if getattr(self, name) < 0:
                raise ValueError(f"register count {name} must be >= 0")
        if any(d < 1 for d in dims):
            raise ValueError("party dimensions must be >= 1")

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
        party = _integer(party, "party")
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
        """This layout with ``changes`` applied.  Layouts are values, so
        equal requests share one result from a bounded memo."""
        if "party_dims" in changes:
            # (3.0,) == (3,): an exact key, so that a bad entry still raises
            dims = changes["party_dims"]
            changes["party_dims"] = tuple([_integer(d, "party_dims") for d in dims])
        return _replaced(self, **changes)


# typed: 1.0 and 1 are equal keys, but a count of 1.0 must raise
@functools.lru_cache(maxsize=128, typed=True)
def _replaced(layout: RegisterLayout, **changes) -> RegisterLayout:
    return dataclasses.replace(layout, **changes)


@dataclass(frozen=True)
class Term:
    """One labelled branch: amplitude x discrete labels x coherent beams."""

    amp: complex
    labels: tuple[int, ...]
    qubus: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "amp", _number(complex, self.amp, "amp"))
        object.__setattr__(self, "labels", tuple([_integer(x, "labels") for x in self.labels]))
        qubus = tuple([_number(complex, q, "qubus") for q in self.qubus])
        object.__setattr__(self, "qubus", qubus)
        if not cmath.isfinite(self.amp):
            raise ValueError("term amplitude must be finite")
        if not all(map(cmath.isfinite, self.qubus)):
            raise ValueError("qubus amplitudes must be finite")


class HybridState:
    """Finite superposition over discrete labels tensored with coherent beams.

    States are immutable values; all operations on them are pure functions
    returning new states.  An empty term list is allowed only as the flagged
    result of a failed herald; norm computations reject it.

    A state is held as parallel columns, index i of each describing term i:
    ``amps`` (its amplitude), ``labels`` (its label tuple) and ``beams``,
    one column per qubus beam holding each term's amplitude of that beam.
    ``terms`` is the same state as :class:`Term` objects, built on each access
    (``state.terms is state.terms`` is False).  ``==`` and ``hash`` compare
    the layout and the columns; ``repr`` is that of ``(layout, terms)``.
    """

    __slots__ = ("_layout", "_amps", "_labels", "_beams")

    def __init__(self, layout: RegisterLayout, terms):
        """Check every term against the layout and fill the columns."""
        dims = layout.label_dims()
        amps, labels, rows = [], [], []
        for t in terms:
            if len(t.labels) != len(dims):
                raise ValueError(
                    f"term has {len(t.labels)} labels, layout declares {len(dims)}"
                )
            for lab, dim in zip(t.labels, dims):
                if not 0 <= lab < dim:
                    raise ValueError(f"label {lab} out of range for dimension {dim}")
            if len(t.qubus) != layout.qubus_count:
                raise ValueError(
                    f"term has {len(t.qubus)} qubus amplitudes, layout declares "
                    f"{layout.qubus_count}"
                )
            amps.append(t.amp)
            labels.append(t.labels)
            rows.append(t.qubus)
        self._layout = layout
        self._amps = tuple(amps)
        self._labels = tuple(labels)
        self._beams = tuple(zip(*rows)) if rows else ((),) * layout.qubus_count

    # Read-only: a state is a value, and assigning to any of these raises.
    layout = property(operator.attrgetter("_layout"))
    amps = property(operator.attrgetter("_amps"), doc="Amplitude of each term.")
    labels = property(operator.attrgetter("_labels"), doc="Label tuple of each term.")
    beams = property(
        operator.attrgetter("_beams"),
        doc="One column per qubus beam: that beam's amplitude in each term.",
    )

    @property
    def terms(self) -> tuple[Term, ...]:
        """The state as :class:`Term` objects, built on each access."""
        return tuple(map(_view_term, self._amps, self._labels, _rows(self)))

    def __repr__(self) -> str:
        return f"HybridState(layout={self._layout!r}, terms={self.terms!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal terms, compared column by column
        return (self._layout, self._amps, self._labels, self._beams) == (
            other._layout, other._amps, other._labels, other._beams
        )

    def __hash__(self) -> int:
        return hash((self._layout, self._amps, self._labels, self._beams))

    def __reduce__(self):
        return _columns, (self._layout, self._amps, self._labels, self._beams)


# The public constructors above validate every field.  The library builds
# its two fresh states, the input photon and a target, from columns valid by
# construction, and every other state from one that is already valid, with
# labels drawn from range(dim) and layouts of the shape they declare, through
# _derive, which checks only finiteness, once per new column.
_new = object.__new__
_set_field = object.__setattr__


def _columns(layout: RegisterLayout, amps: tuple, labels: tuple, beams: tuple) -> HybridState:
    """A :class:`HybridState` from columns that already fit ``layout``,
    without the per-term checks."""
    s = _new(HybridState)
    s._layout = layout
    s._amps = amps
    s._labels = labels
    s._beams = beams
    return s


def _taker(index):
    """The function that gives the entries ``index`` of a column, in that
    order, as a tuple.  ``itemgetter`` picks in C: a comprehension per column
    made ``generate`` about 3% slower at n = 3."""
    if len(index) > 1:
        return operator.itemgetter(*index)
    return lambda column: tuple([column[i] for i in index])


def _derive(
    state: HybridState, src=None, layout=None, amps=None, labels=None, beams=None
) -> HybridState:
    """The state whose term r comes from term ``src[r]`` of ``state`` (term
    r when ``src`` is None), with the layout and columns given here.

    A given amplitude or label column is the result's; a column not given
    is the source's, picked by ``src``.  ``beams`` is the whole beam tuple,
    one column per beam the result keeps, over the source's terms, so it is
    picked by ``src`` too.  Each given amplitude or beam column that is not
    one of the source's is checked for finiteness here, once: a column
    given twice in a row, as :func:`protocols._attach_party` gives its fresh
    (alpha, alpha) pair, is checked the first time only.
    """
    take = None if src is None else _taker(src)
    if amps is None:
        amps = state._amps if take is None else take(state._amps)
    elif not all(map(cmath.isfinite, amps)):
        raise ValueError("term amplitude must be finite")
    if labels is None:
        labels = state._labels if take is None else take(state._labels)
    if beams is None:
        beams = state._beams
    else:
        last = None
        for col in beams:
            # `in` matches the source's own column by identity first; a
            # column equal to a finite one is finite too, and so is one that
            # passed just before
            if (
                col is not last
                and col not in state._beams
                and not all(map(cmath.isfinite, col))
            ):
                raise ValueError("qubus amplitudes must be finite")
            last = col
    if take is not None:
        beams = tuple(map(take, beams))
    return _columns(state._layout if layout is None else layout, amps, labels, beams)


def _check_beam(state: HybridState, beam: int) -> None:
    """Reject a qubus beam index that ``state``'s layout does not declare."""
    if not 0 <= _integer(beam, "beam") < state._layout.qubus_count:
        raise ValueError(f"beam index {beam} out of range")


def _without_beam(state: HybridState, beam: int, src=None, amps=None) -> HybridState:
    """``state`` with qubus beam ``beam`` removed from every term, in one
    :func:`_derive`: its terms ``src`` (all by default) with amplitudes
    ``amps`` (theirs by default)."""
    layout = state._layout
    return _derive(
        state,
        src,
        layout.replace(qubus_count=layout.qubus_count - 1),
        amps,
        beams=state._beams[:beam] + state._beams[beam + 1 :],
    )


def _rows(state: HybridState) -> tuple[tuple[complex, ...], ...]:
    """The beam tuple of each term: the ``beams`` columns transposed."""
    if state._beams:
        return tuple(zip(*state._beams))
    return ((),) * len(state._amps)


def _view_term(amp: complex, labels: tuple[int, ...], qubus: tuple[complex, ...]) -> Term:
    """A :class:`Term` of a valid state's columns, without its field checks."""
    t = _new(Term)
    _set_field(t, "amp", amp)
    _set_field(t, "labels", labels)
    _set_field(t, "qubus", qubus)
    return t


def qubus_close(u: complex, v: complex) -> bool:
    """Whether two beam amplitudes are the same value within :data:`MERGE_TOL`."""
    return abs(u - v) <= MERGE_TOL * max(1.0, abs(u), abs(v))


# The half-width of _merge_groups' window, per unit of max(1, |u0|):
# qubus_close accepts |Re(u0 - v0)| up to MERGE_TOL max(1, |u0|) /
# (1 - MERGE_TOL).  The window is taken on real parts rounded to 12
# decimals, each within 0.5e-12 + 1/2 ulp of its value, so 1e-12 more
# (max(1, |u0|) is at least 1) covers the rounding of both keys, and 1e-3
# of the whole more covers their ulps (~1e-16 |u0|).
_WINDOW = (MERGE_TOL / (1.0 - MERGE_TOL) + 1e-12) * 1.001


def _merge_groups(beams, index) -> list[list[int]]:
    """The one rule for "these terms' beams are the same value".

    Over a state's beam columns ``beams``, the ascending term indices
    ``index`` are visited in rounded-beam order (ties in index order).  Each
    joins the first group whose first member agrees with it on every column
    within :data:`MERGE_TOL`, else starts a new group.  Groups come in
    creation order and list their members in visit order, so a group's first
    index is its representative.

    A beam's rounded key is its real and imaginary parts rounded to the 12
    decimals of :data:`MERGE_TOL`, ``(round(q.real, 12), round(q.imag,
    12))``.  Every part is rounded in one ``map``, and a term's key is its
    beams' rounded parts in a row, which sorts and compares as its list of
    per-beam keys.  A stable sort of the positions in ``index`` on those
    keys gives the visit order.

    Only representatives whose first beam's rounded real part lies within
    :data:`_WINDOW` max(1, |u0|) of the visited u0's are tested:
    :func:`qubus_close` accepts no pair farther apart, so the first match
    in creation order is the same as over all groups (the bound needs
    finite beams, which every :class:`Term` has).  Groups are created in
    visit order, which sorts first on that rounded real part, so the
    representatives' rounded real parts never decrease: the window is two
    bisects of an append-only list, and its slice is in creation order.
    """
    if len(index) <= 1 or not beams:
        return [list(index)] if index else []
    parts = [x for i in index for col in beams for x in (col[i].real, col[i].imag)]
    rounded = map(round, parts, itertools.repeat(12))
    keys = list(zip(*[rounded] * (2 * len(beams))))
    groups: list[list[int]] = []
    rep_re: list[float] = []  # each representative's first beam's rounded real part
    for p in sorted(range(len(index)), key=keys.__getitem__):
        i = index[p]
        u0_re = keys[p][0]
        w = _WINDOW * max(1.0, abs(beams[0][i]))
        lo = bisect.bisect_left(rep_re, u0_re - w)
        hi = bisect.bisect_right(rep_re, u0_re + w)
        for g in groups[lo:hi]:
            for col in beams:  # a loop: all() over a generator took ~10% longer here
                if not qubus_close(col[g[0]], col[i]):
                    break
            else:
                g.append(i)
                break
        else:
            groups.append([i])
            rep_re.append(u0_re)
    return groups


def canonicalize(state: HybridState) -> HybridState:
    """Merge equal-label, equal-qubus terms, drop negligible ones, sort.

    Terms whose labels match and whose qubus amplitudes agree within
    :data:`MERGE_TOL` are summed into one.  Terms with |amp| < :data:`DROP_TOL`
    are removed.  Idempotent; the output term order is a deterministic sort
    on (labels, rounded qubus).

    A state already in canonical form is returned as it is: its labels
    strictly increase and every |amp| is at least :data:`DROP_TOL`, so the
    walk below would keep every term in place and return an equal state,
    column for column.  Two passes in C decide this.

    Any other state takes the walk.  One stable sort orders the terms by
    label, and a walk over neighbours finds the runs of equal labels.  A
    label held by one term is its own group; only a run of two or more goes
    through :func:`_merge_groups`.  Each group sums its members in
    merge-group order.
    """
    amps, labels = state._amps, state._labels
    if all(map(operator.lt, labels, labels[1:])) and (
        min(map(abs, amps), default=DROP_TOL) >= DROP_TOL
    ):
        return state
    order = sorted(range(len(labels)), key=labels.__getitem__)
    ordered = [labels[i] for i in order]
    # run r is order[starts[r]:starts[r + 1]]; a run starts where the label changes
    changes = itertools.compress(range(1, len(order)), map(operator.ne, ordered, ordered[1:]))
    starts = [0, *changes, len(order)] if order else []
    src, new_amps = [], []  # each kept group's first term, and its sum
    for start, stop in zip(starts, starts[1:]):
        if stop - start > 1:
            for g in _merge_groups(state._beams, order[start:stop]):
                first = g[0]
                amp = amps[first]
                for i in g[1:]:
                    amp += amps[i]
                if abs(amp) >= DROP_TOL:
                    src.append(first)
                    new_amps.append(amp)
        else:  # a label held by one term is its own group
            first = order[start]
            amp = amps[first]
            if abs(amp) >= DROP_TOL:
                src.append(first)
                new_amps.append(amp)
    return _derive(state, src, amps=tuple(new_amps))  # a merged sum can overflow


def _abs_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _inner(a: HybridState, b: HybridState, classes=None, distinct=False):
    """<a|b> over the terms of two states: equal-label terms interfere
    through the full product of coherent overlaps, distinct labels are
    orthogonal.

    Needs no canonical form: equal beams overlap with weight exactly 1, so
    a duplicated (labels, beams) pair counts as its merged sum, and beams
    that :func:`canonicalize` would merge are summed with their true overlap.

    ``classes``, when given, holds a class number for each term index of
    both states.  Then the result is ``(<a|b>, sums)``: ``sums[k]`` adds the
    pairs whose two terms are both in class k, in the order the total adds
    them, so it is bit for bit the <a|b> of class k's terms alone.  It has
    ``max(classes) + 1`` entries; a class that holds no term sums to 0j.

    A pair of two terms weighs conj(amp_i) amp_j times exp of the sum of
    their per-beam :func:`coherent_overlap` logs, computed inline; a pair of
    two beamless states weighs conj(amp_i) amp_j alone.  Times exp(0j) =
    1 + 0j the product differs at most in the sign of a zero part, and a
    sum that starts at 0j never takes that sign.  A term paired with itself
    in ``<a|a>`` weighs |amp_i|^2, with no overlap.

    Pairs are added in order of i, then of ascending j.  Two states with
    equal label columns and no repeated label pair term i with term i
    alone.  When ``a is b`` or neither state has a beam, as in ``<s|s>`` of
    every protocol state, the feedforward's outcome checks and the target
    overlap, the sum walks the amplitudes in index order and looks up no
    label: each weight is conj(a_i) b_i, taken in C.  In ``<a|a>`` its real
    part is amp.real^2 + amp.imag^2 to the bit and its imaginary part is
    (-x) + x = +0.0; only past |amp| ~ 1e154, where the real part is inf,
    does an overflowing x make it NaN.  Otherwise each label of b maps to
    the list of its term indices.

    Whether a label repeats takes a ``set`` of ``a``'s labels, a pass over
    every term.  ``distinct=True`` is the caller's proof that none does,
    and skips that pass.  The herald's class-weighted call and the
    feedforward's outcome norms pass it when :func:`canonicalize` returned
    their state as it is, so that its labels strictly increase.  The
    feedforward's outcome checks always pass it: two outcomes reach the
    index pairing only when neither holds a beam, and each is cut from one
    canonical beamless state, whose equal labels have merged.  Every other
    caller leaves it False and gets the check.
    """
    a_labels, b_labels, amps = a._labels, b._labels, a._amps
    a_beams, b_beams, b_amps = a._beams, b._beams, b._amps
    total = 0j
    sums = None if classes is None else [0j] * (max(classes, default=-1) + 1)
    same = a is b
    if (
        (same or not (a_beams or b_beams))
        and (a_labels is b_labels or a_labels == b_labels)
        and (distinct or len(set(a_labels)) == len(a_labels))
    ):
        pairs = list(map(operator.mul, map(complex.conjugate, amps), b_amps))
        if sums is not None:
            for k, pair in zip(classes, pairs):
                sums[k] += pair
        total = functools.reduce(operator.add, pairs, total)
        return total if sums is None else (total, sums)
    by_labels: dict[tuple[int, ...], list[int]] = {}
    for j, labels in enumerate(b_labels):
        by_labels.setdefault(labels, []).append(j)
    for i, labels in enumerate(a_labels):
        for j in by_labels.get(labels, ()):
            if same and i == j:
                # the cross-pair weight below is exactly this: every
                # self-overlap of a finite beam is -0.0 + 0.0j, so its
                # exponential is 1 + 0j.
                amp = amps[i]
                pair = amp.real * amp.real + amp.imag * amp.imag
            elif a_beams:
                log_ov = 0j
                for col_a, col_b in zip(a_beams, b_beams):
                    log_ov += coherent_overlap(col_a[i], col_b[j])
                pair = amps[i].conjugate() * b_amps[j] * cmath.exp(log_ov)
            else:
                pair = amps[i].conjugate() * b_amps[j]
            total += pair
            if sums is not None and classes[i] == classes[j]:
                sums[classes[i]] += pair
    return total if sums is None else (total, sums)


_LN2 = math.log(2.0)


def _logaddexp_reduce(logs) -> float:
    """log(sum(exp(x) for x in logs)) without overflow or underflow.

    A left fold of numpy's two-term ``logaddexp`` step (equal arguments give
    x + ln 2, otherwise max + log1p(exp(-|x - y|))), so it equals
    ``np.logaddexp.reduce(logs)`` bit for bit.  ``logs`` must be non-empty.
    """
    it = iter(logs)
    acc = next(it)
    for y in it:
        if acc == y:  # also an infinity of the same sign, without inf - inf
            acc = acc + _LN2
        else:
            diff = acc - y
            if diff > 0:
                acc = acc + math.log1p(math.exp(-diff))
            elif diff <= 0:
                acc = y + math.log1p(math.exp(diff))
            else:  # NaN
                acc = diff
    return float(acc)


def state_norm_sq(state: HybridState) -> float:
    """Physical squared norm <state|state> of a hybrid state."""
    if not state._amps:
        raise ValueError("empty state")
    return _inner(state, state).real


def inner_product(a: HybridState, b: HybridState) -> complex:
    """<a|b> with exact coherent-state overlaps.

    Discrete labels contribute 0/1; qubus beams contribute their full
    coherent overlap.
    """
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    if not a._amps or not b._amps:
        raise ValueError("empty state")
    return _inner(a, b)


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
    _check_beam(state, beam)
    col = state._beams[beam]
    if col:
        ref = col[0]
        for q in col:
            if not qubus_close(q, ref):
                raise ValueError("beam is entangled with the rest of the state")
    return _without_beam(state, beam)


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
                "amp": [amp.real, amp.imag],
                "labels": list(labels),
                "qubus": [[q.real, q.imag] for q in qubus],
            }
            for amp, labels, qubus in zip(state._amps, state._labels, _rows(state))
        ],
    }


def _pair(pair, name: str) -> complex:
    """The number of a JSON ``[re, im]`` pair, each part coerced as a float."""
    if len(pair) != 2:
        raise ValueError(f"{name} must be a [re, im] pair")
    return complex(_number(float, pair[0], name), _number(float, pair[1], name))


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
            _pair(t["amp"], "amp"),
            tuple(t["labels"]),
            tuple([_pair(q, "qubus") for q in t["qubus"]]),
        )
        for t in data["terms"]
    )
    return HybridState(layout, terms)
