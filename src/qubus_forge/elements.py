"""Unitary optical elements.

Cross-phase (XPM) imprinting on a qubus beam, qubus phase rotation, the
50:50 beam splitter, single-photon polarization rotations, polarizing
beam-splitter routing, and the n-mode Fourier interferometer.  Every
operation is pure, returns a new state and preserves the squared norm.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator

from .state import (
    POL_H,
    POL_V,
    HybridState,
    _check_beam,
    _derive,
    _integer,
    _number,
    _repeated,
    _taker,
    canonicalize,
)

_SQRT2 = math.sqrt(2.0)
_UNITARY_TOL = 1e-12


def apply_xpm(
    state: HybridState, party: int, shift: int, beam: int, theta: float
) -> HybridState:
    """Imprint one entangling stage's XPM phases on one qubus beam.

    A term with party label j and spatial mode s rotates ``beam`` by
    ``exp(i * theta * ((dim - 1 - j) + (s + shift) mod n))``: one unit of
    ``theta`` per photon in the party's upper (horizontal) rail, plus
    ``(s + shift) mod n`` units from the photon's mode of the n-mode spatial
    register.  Amplitudes, labels and beam magnitudes are untouched.

    Each term's unit count comes from its party label and, through one
    lookup list, its spatial label.  Each distinct pair of the term's beam
    code and unit count, as the key ``code * K + units``, takes the next new
    code when it first appears and maps to one new table entry
    ``q * exp(i theta units)``: a protocol stage's n^2 terms take at most
    2n - 1 rotations.  One plain loop over the terms with one dict lookup
    each measured faster than building the keys and mapping them in C, at
    n = 3 and at n = 48 alike.
    """
    shift = _integer(shift, "shift")
    _check_beam(state, beam)
    layout = state.layout
    party_slot = layout.party_slot(party)
    spatial_slot = layout.ancilla_slot
    theta = _number(float, theta, "theta")
    if not math.isfinite(theta):  # it would make every rotated beam non-finite
        raise ValueError("qubus amplitudes must be finite")
    n = layout.ancilla_modes
    top = layout.party_dims[party_slot] - 1
    # The phase takes top + n integer values; theta * units overflowing at
    # the largest of them would reach cmath.exp as an infinite phase.
    if not math.isfinite(theta * (top + n - 1)):
        raise ValueError(
            f"theta = {theta!r} is too large: the largest XPM phase, "
            f"{top + n - 1} theta, overflows"
        )
    beams = state._beams
    codes, table = beams[beam]
    k = top + n  # unit counts run from 0 to top + n - 1
    shift %= n
    # top + (s + shift) mod n for each spatial mode s; a term's unit count
    # is that of its mode less its party label
    mode = [*range(top + shift, top + n), *range(top, top + shift)]
    new_code = {}  # each distinct key, in order of first appearance -> its code
    entries, new_codes = [], []
    for code, j, s in zip(codes, state._labels[party_slot], state._labels[spatial_slot]):
        units = mode[s] - j
        key = code * k + units
        c = new_code.get(key)
        if c is None:
            c = new_code[key] = len(entries)
            entries.append(table[code] * cmath.exp(1j * theta * units))
        new_codes.append(c)
    column = (tuple(new_codes), tuple(entries))
    return _derive(state, beams=beams[:beam] + (column,) + beams[beam + 1 :])


def apply_qubus_phase(state: HybridState, beam: int, phi: float) -> HybridState:
    """Rotate one qubus beam in phase space: alpha -> alpha e^{i phi}.

    The rotation multiplies the beam's table and shares its codes.
    """
    _check_beam(state, beam)
    phi = _number(float, phi, "phi")
    if not math.isfinite(phi):  # it would make every rotated beam non-finite
        raise ValueError("qubus amplitudes must be finite")
    rot = cmath.exp(1j * phi)
    beams = state._beams
    codes, table = beams[beam]
    column = (codes, tuple(map(operator.mul, table, itertools.repeat(rot))))
    return _derive(state, beams=beams[:beam] + (column,) + beams[beam + 1 :])


def apply_bs_5050(state: HybridState, beams: tuple[int, int]) -> HybridState:
    """Interfere two qubus beams on a 50:50 beam splitter.

    Per term, (a, b) -> ((a - b)/sqrt(2), (a + b)/sqrt(2)); the total beam
    energy |a|^2 + |b|^2 is conserved identically.

    Each distinct pair of the terms' two codes, as the key
    ``code_a * len(table_b) + code_b``, takes the next new code when it
    first appears and maps to one entry of each new table; both beams share
    the one new codes tuple.
    """
    b1, b2 = beams
    if b1 == b2:
        raise ValueError("beam splitter needs two distinct beams")
    for b in (b1, b2):
        _check_beam(state, b)
    (codes_a, table_a), (codes_b, table_b) = state._beams[b1], state._beams[b2]
    size = len(table_b)
    new_code = {}  # each distinct key, in order of first appearance -> its code
    diffs, sums, codes = [], [], []
    for a, b in zip(codes_a, codes_b):
        key = a * size + b
        c = new_code.get(key)
        if c is None:
            c = new_code[key] = len(diffs)
            qa, qb = table_a[a], table_b[b]
            diffs.append((qa - qb) / _SQRT2)
            sums.append((qa + qb) / _SQRT2)
        codes.append(c)
    codes = tuple(codes)
    beams = list(state._beams)
    beams[b1] = (codes, tuple(diffs))
    beams[b2] = (codes, tuple(sums))
    return _derive(state, beams=tuple(beams))


# A 2x2 matrix as its rows of Python complex entries.
_Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def prep_rotation(n: int, j: int) -> _Matrix2:
    """Polarization rotation of step j of the preparation cascade.

    Sends |H> to sqrt((n-j-1)/(n-j)) |H> + (1/sqrt(n-j)) |V>, i.e. peels a
    1/(n-j) share of the remaining work-mode weight into V.
    """
    remaining = _integer(n, "n") - _integer(j, "j")
    if not 1 <= remaining <= n:  # step j in [0, n)
        raise ValueError(f"cascade step {j} out of range for dimension {n}")
    c = math.sqrt((remaining - 1) / remaining)
    s = math.sqrt(1.0 / _number(float, remaining, "n"))
    # complex(-s), not -complex(s): every imaginary part stays +0.0
    return ((complex(c), complex(-s)), (complex(s), complex(c)))


def pol_flip() -> _Matrix2:
    """Polarization flip (sigma_x): swaps H and V."""
    return ((0j, 1 + 0j), (1 + 0j, 0j))


def _matrix2(u) -> _Matrix2:
    """The rows of a 2x2 nested sequence (or ndarray) as Python complex."""
    try:
        rows = tuple(tuple(complex(x) for x in row) for row in u)
    except TypeError:  # not a sequence of sequences of numbers
        rows = ()
    if len(rows) != 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
        raise ValueError("expected a 2x2 matrix")
    return rows


def _is_unitary(u: _Matrix2) -> bool:
    """Whether every entry of u^dagger u - 1 is within :data:`_UNITARY_TOL`.

    For finite ``u`` only.  A product that overflows to inf or NaN fails:
    such a ``u`` has an entry above ~1e153 in size and is not unitary.
    """
    (a, b), (c, d) = u
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    entries = (ac * a + cc * c - 1, ac * b + cc * d,
               bc * a + dc * c, bc * b + dc * d - 1)
    # hypot, not abs(z): abs raises OverflowError where hypot returns inf
    return all(math.hypot(z.real, z.imag) <= _UNITARY_TOL for z in entries)


def apply_su2(state: HybridState, u) -> HybridState:
    """Apply a 2x2 unitary to the polarization of the photon in the work mode.

    ``u`` is a 2x2 nested sequence of numbers (or an ndarray).  Terms whose
    preparation photon sits in any other spatial mode are left alone.
    Column convention: |H> -> u[0][0] |H> + u[1][0] |V>.
    """
    u = _matrix2(u)
    finite = all(map(cmath.isfinite, u[0] + u[1]))
    # A matrix that is not finite is rejected below, once the state is known
    # to have a work mode.
    if finite and not _is_unitary(u):
        raise ValueError("matrix is not unitary")
    layout = state.layout
    work = layout.work_mode
    if not finite:  # it would make the amplitudes it multiplies non-finite
        raise ValueError("su2 matrix entries must be finite")
    columns = state._labels
    pol_slot = layout.prep_pol_slot
    src, amps, pols = [], [], []  # source term, amplitude, polarization
    for i, (amp, mode, pol) in enumerate(
        zip(state._amps, columns[layout.prep_spatial_slot], columns[pol_slot])
    ):
        if mode != work:
            src.append(i)
            amps.append(amp)
            pols.append(pol)
            continue
        for new_pol in (POL_H, POL_V):
            new_amp = u[new_pol][pol] * amp
            if new_amp != 0:
                src.append(i)
                amps.append(new_amp)
                pols.append(new_pol)
    labels = list(map(_taker(src), columns))
    labels[pol_slot] = tuple(pols)
    return canonicalize(_derive(state, src, amps=tuple(amps), labels=tuple(labels)))


def apply_pbs(state: HybridState, from_mode: int, new_mode: int) -> HybridState:
    """Polarizing beam splitter on the preparation register.

    Vertically polarized terms in ``from_mode`` are reflected into
    ``new_mode``; horizontal terms pass through unchanged.
    """
    layout = state.layout
    sp_slot = layout.prep_spatial_slot
    from_mode, new_mode = _integer(from_mode, "from_mode"), _integer(new_mode, "new_mode")
    for mode in (from_mode, new_mode):
        if not 0 <= mode < layout.prep_modes:
            raise ValueError(f"spatial mode {mode} out of range")
    labels = list(state._labels)
    labels[sp_slot] = tuple([
        new_mode if mode == from_mode and pol == POL_V else mode
        for mode, pol in zip(labels[sp_slot], labels[layout.prep_pol_slot])
    ])
    return canonicalize(_derive(state, labels=tuple(labels)))


@functools.lru_cache(maxsize=256)
def _fourier_row(n: int, j: int) -> tuple[complex, ...]:
    """The phases exp(2 pi i j k / n) of Fourier mode j, for k < n.

    A row depends on (n, j) alone, so it is kept in a bounded memo.  Its 256
    rows hold every row of a few dimensions in turn, such as n = 24, 32, 40
    and 48 (144 rows).  A row of n entries takes 40 n + 56 bytes, so at
    n <= N_MAX the memo holds under 11 MB; a hand-built register wider than
    N_MAX keeps up to 256 rows of its own width.
    """
    return tuple([cmath.exp(2j * math.pi * j * k / n) for k in range(n)])


def apply_fourier_lomi(state: HybridState) -> HybridState:
    """n-mode Fourier transform on the single-photon spatial register.

    Mode j maps to (1/sqrt(n)) sum_k exp(2 pi i j k / n) |k>; all other
    labels and the qubus beams are untouched.

    Each source term scales its amplitude by 1/sqrt(n) once and takes mode
    j's phases as one row of the memo of :func:`_fourier_row`.  Each other
    label column and each beam's codes repeat every entry n times, in C, and
    the spatial column is ``range(n)`` once per source term.
    """
    layout = state.layout
    slot = layout.ancilla_slot
    n = layout.ancilla_modes
    scale = 1.0 / math.sqrt(n)
    amps = tuple([
        scaled * phase
        for scaled, row in zip(
            map(operator.mul, state._amps, itertools.repeat(scale)),
            map(_fourier_row, itertools.repeat(n), state._labels[slot]),
        )
        for phase in row
    ])
    columns = state._labels
    labels = list(map(_repeated, columns[:slot] + columns[slot + 1 :], itertools.repeat(n)))
    labels.insert(slot, tuple(range(n)) * len(state._amps))
    beams = [(_repeated(codes, n), table) for codes, table in state._beams]
    return canonicalize(_derive(state, amps=amps, labels=tuple(labels), beams=tuple(beams)))
