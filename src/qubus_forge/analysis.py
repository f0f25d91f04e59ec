"""Figures of merit and parameter sweeps.

State fidelity, reduced-state entropy, the closed-form silent-failure
probability of a balanced entangling stage, feasibility sweeps over
(alpha, theta, eta), and verification of the maximally entangled basis.
All probability assembly happens in log space so that exponents of order
1e5 neither overflow nor silently turn into NaN.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .heralding import DetectorModel, _classify_branches, _failure_log
from .protocols import (
    _attach_party,
    _couple,
    phased_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from .state import (
    HybridState,
    _check_working_point,
    _count,
    _integer,
    _logaddexp_reduce,
    _number,
    _shown,
    inner_product,
    state_norm_sq,
)

_LN10 = math.log(10.0)


def reduced_entropy(state: HybridState) -> float:
    """Von Neumann entropy (bits) of either party of a pure two-party state.

    log2(n) for a maximally entangled pair of n-level qudits, 0 for a
    product state.
    """
    # The package's one use of numpy, imported here so that importing
    # qubus_forge (and every other command of the CLI) does not load it.
    import numpy as np

    layout = state.layout
    if layout.num_parties != 2 or layout.has_ancilla or layout.has_prep \
            or layout.qubus_count:
        raise ValueError("state must be a bare two-party pure state")
    psi = np.zeros(layout.party_dims, dtype=complex)
    for (j, k), amp in zip(state.labels, state.amps):
        psi[j, k] += amp
    psi /= math.sqrt(state_norm_sq(state))
    schmidt = np.linalg.svd(psi, compute_uv=False)
    probs = schmidt**2
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def _check_beam_inputs(alpha, theta, d_max: int, name: str) -> tuple[complex, float]:
    """alpha and theta as complex and float, after rejecting a non-finite
    alpha or theta, an alpha, theta or largest offset d_max beyond float
    range (d_max named by ``name``, the argument it comes from), a theta
    whose largest phase d_max theta / 2 overflows, and an alpha whose beam
    energy 2 |alpha|^2 overflows.  The messages show the caller's values."""
    a = _number(complex, alpha, "alpha")
    if not cmath.isfinite(a):
        raise ValueError(f"alpha must be finite, got {_shown(alpha)}")
    _number(float, d_max, name)
    t = _number(float, theta, "theta")
    if not math.isfinite(d_max * t / 2.0):
        raise ValueError(
            f"theta must be finite, and so must d theta / 2 up to d = {_shown(d_max, str)}; "
            f"got {_shown(theta)}"
        )
    try:
        energy = 2.0 * abs(a) ** 2
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise ValueError(f"alpha = {_shown(alpha)} overflows the beam energy 2 |alpha|^2")
    return a, t


def _closed_form_terms(theta: float, n: int):
    """The eta-independent terms of the closed form, lazily: per offset
    d = 1 .. n-1, the log weight log(2 (n-d) / n^2) and sin^2(d theta / 2)."""
    return (
        (math.log(2.0 * (n - d) / n**2), math.sin(d * theta / 2.0) ** 2)
        for d in range(1, n)
    )


def _closed_form_fold(a_sq: float, terms, eta: float) -> float:
    """Natural log of the closed form at detector efficiency eta, from
    |alpha|^2 and :func:`_closed_form_terms`, folded term by term."""
    scale = 2.0 * eta * a_sq
    return _logaddexp_reduce(lw - scale * s_sq for lw, s_sq in terms)


# Largest n the closed form takes.  It folds its n - 1 offsets one by one,
# ~1.4 us each (2-CPU Xeon VM, CPython 3.11): 0.14 s at this bound, 1.3 s at
# 10^6, and hours at 10^12.  100 N_MAX covers every dimension a spec or a
# sweep accepts with room to spare.
CLOSED_FORM_N_MAX = 100_000


def error_prob_closed_form(alpha, theta: float, eta: float, n: int) -> float:
    """Closed-form silent-failure probability of one balanced stage.

    Branch with phase offset d (1 <= |d| <= n-1) has weight (n-|d|)/n^2 and
    beam energy 2 |alpha|^2 sin^2(d theta / 2); the detector misses it with
    probability exp(-eta * energy).  At n = 3 and eta = 1 this is
    (4/9) exp(-2 |a|^2 sin^2(t/2)) + (2/9) exp(-2 |a|^2 sin^2 t).
    May underflow to 0.0 for bright beams; :func:`_closed_form_fold` gives
    the log value.  Raises ValueError on a non-finite alpha or theta, an
    alpha, theta or n beyond float range, an alpha whose beam energy
    overflows and an n above :data:`CLOSED_FORM_N_MAX`.
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    eta = DetectorModel(eta).efficiency  # raises outside [0, 1]
    alpha, theta = _check_beam_inputs(alpha, theta, n - 1, "n")
    # after the checks above, whose messages name the first bad input
    if n > CLOSED_FORM_N_MAX:
        raise ValueError(f"dimension n must be <= {CLOSED_FORM_N_MAX} for the closed form")
    return math.exp(_closed_form_fold(abs(alpha) ** 2, _closed_form_terms(theta, n), eta))


def mean_branch_photons(alpha, theta: float, d: int) -> float:
    """Mean photon number |alpha (1 - e^{i d theta}) / sqrt(2)|^2 of the
    failure branch with phase offset d: 2 |alpha|^2 sin^2(d theta / 2).
    Raises ValueError on a non-finite alpha or theta, an alpha, theta or d
    beyond float range and an alpha whose beam energy overflows."""
    d = _integer(d, "d")
    alpha, theta = _check_beam_inputs(alpha, theta, abs(d), "d")
    return 2.0 * abs(alpha) ** 2 * math.sin(d * theta / 2.0) ** 2


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over beam amplitude, XPM phase and detector efficiency;
    every (alpha, theta) pair must be a working point that generate accepts."""

    alpha_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    eta_values: tuple[float, ...]
    n: int = 3

    def __post_init__(self):
        for name in ("alpha", "theta", "eta"):
            values = getattr(self, f"{name}_values")
            object.__setattr__(self, f"{name}_values",
                               tuple(_number(float, v, name) for v in values))
        if not (self.alpha_values and self.theta_values and self.eta_values):
            raise ValueError("sweep axes must be non-empty")
        if any(a < 0 for a in self.alpha_values):
            raise ValueError("alpha must be >= 0")
        if any(t <= 0 for t in self.theta_values):
            raise ValueError("theta must be > 0")
        for eta in self.eta_values:
            DetectorModel(eta)  # raises outside [0, 1]
        object.__setattr__(self, "n", _count(self.n, "n"))
        for alpha, theta in itertools.product(self.alpha_values, self.theta_values):
            _check_working_point(self.n, theta, alpha)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point.

    The log10 columns stay meaningful when the probabilities themselves
    underflow double precision (exponents reach ~5e3 at theta = 0.1,
    alpha = 500).  ``mean_photons_k2`` is None at n = 2, which has no
    phase offset d = 2.
    """

    alpha: float
    theta: float
    eta: float
    mean_photons_k1: float
    mean_photons_k2: float | None
    p_error_closed: float
    p_error_simulated: float
    p_error_closed_log10: float
    p_error_simulated_log10: float


def _sweep_rows(attached: HybridState, alpha: float, theta: float, terms, etas):
    """One :class:`SweepRow` per eta for the pair (alpha, theta).

    ``attached`` is the ancilla with the balanced party and the
    (alpha, alpha) qubus pair attached, and ``terms`` the closed form's
    eta-independent terms at theta, as a tuple.  The coupled stage, its
    branch classes and the mean photon numbers are computed once; each eta
    costs only the two log-space folds over the failure branches, the
    simulated one and the closed form.
    """
    st, beam = _couple(attached, 0, theta)
    classes = _classify_branches(st, beam)
    a_sq = abs(alpha) ** 2
    k1 = 2.0 * a_sq * terms[0][1]
    k2 = 2.0 * a_sq * terms[1][1] if len(terms) >= 2 else None
    rows = []
    for eta in etas:
        closed_log = _closed_form_fold(a_sq, terms, eta)
        error_log, error_prob = _failure_log(classes, eta)
        rows.append(SweepRow(
            alpha=alpha,
            theta=theta,
            eta=eta,
            mean_photons_k1=k1,
            mean_photons_k2=k2,
            p_error_closed=math.exp(closed_log),
            p_error_simulated=error_prob,
            p_error_closed_log10=closed_log / _LN10,
            p_error_simulated_log10=error_log / _LN10,
        ))
    return rows


def sweep_point(alpha: float, theta: float, eta: float, n: int = 3) -> SweepRow:
    """Evaluate one grid point: the row of :func:`run_sweep` over the grid
    (alpha,) x (theta,) x (eta,) at n, coerced and checked as every grid."""
    return run_sweep(SweepGrid((alpha,), (theta,), (eta,), n))[0]


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """One :class:`SweepRow` per grid point, ordered by grid index
    (alpha outermost, eta innermost).

    Each piece of work runs once per value of the axes it depends on.  Once
    per grid the ancilla is prepared and the balanced coefficients built;
    once per alpha the party and the (alpha, alpha) qubus pair are
    attached; once per theta the closed form's eta-independent terms are
    computed.  Once per (alpha, theta) pair the attached state is coupled
    and interfered, its herald-beam classes are formed and the mean photon
    numbers computed.  Once per eta only the two log-space folds over the
    failure branches run: no detector model, branch table or heralded state
    is built.
    """
    n = grid.n
    ancilla = prepare_single_photon_qudit(n)
    coeffs = phased_coeffs(n, 0)
    terms = [tuple(_closed_form_terms(theta, n)) for theta in grid.theta_values]
    rows = []
    for alpha in grid.alpha_values:
        attached = _attach_party(ancilla, coeffs, alpha)
        for theta, theta_terms in zip(grid.theta_values, terms):
            rows.extend(_sweep_rows(attached, alpha, theta, theta_terms, grid.eta_values))
    return rows


@dataclass(frozen=True)
class BasisReport:
    """Checks of the n^2 maximally entangled two-qudit targets."""

    n: int
    states: int
    pairs_checked: int
    max_abs_inner: float
    max_entropy_error: float
    symmetric_count: int
    asymmetric_count: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_basis(n: int) -> BasisReport:
    """Construct all n^2 two-party targets and verify they form a maximally
    entangled orthonormal basis.

    Checks pairwise |<a|b>| < 1e-12 and per-state reduced entropy within
    1e-10 of log2(n).  The k = 0 members are the symmetric family, the
    k != 0 members the asymmetric one.
    """
    if not 2 <= _integer(n, "n") <= 8:
        raise ValueError("basis verification supports 2 <= n <= 8")
    keys = [(m, k) for m in range(n) for k in range(n)]
    states = {key: target_state(n, key[0], key[1]) for key in keys}
    violations = []
    max_inner = 0.0
    pairs = 0
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            pairs += 1
            val = abs(inner_product(states[a], states[b]))
            max_inner = max(max_inner, val)
            if val >= 1e-12:
                violations.append(f"targets {a} and {b} overlap: |inner| = {val:.3e}")
    max_ent_err = 0.0
    expected = math.log2(n)
    for key in keys:
        err = abs(reduced_entropy(states[key]) - expected)
        max_ent_err = max(max_ent_err, err)
        if err > 1e-10:
            violations.append(f"target {key} entropy off by {err:.3e}")
    return BasisReport(
        n=n,
        states=len(keys),
        pairs_checked=pairs,
        max_abs_inner=max_inner,
        max_entropy_error=max_ent_err,
        symmetric_count=sum(1 for _, k in keys if k == 0),
        asymmetric_count=sum(1 for _, k in keys if k != 0),
        violations=tuple(violations),
    )
