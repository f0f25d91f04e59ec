"""Figures of merit and parameter sweeps.

State fidelity, reduced-state entropy, the closed-form silent-failure
probability of a balanced entangling stage, feasibility sweeps over
(alpha, theta, eta), and verification of the maximally entangled basis.
All probability assembly happens in log space so that exponents of order
1e5 neither overflow nor silently turn into NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .heralding import DetectorModel
from .protocols import (
    _run_stage,
    balanced_coeffs,
    prepare_single_photon_qudit,
    target_state,
)
from .state import HybridState, inner_product, overlap_sq, state_norm_sq

_LN10 = math.log(10.0)


def fidelity(a: HybridState, b: HybridState) -> float:
    """|<a|b>|^2 normalized by both norms; insensitive to global phase."""
    return overlap_sq(a, b)


def reduced_entropy(state: HybridState, party: int) -> float:
    """Von Neumann entropy (bits) of one party of a pure two-party state.

    log2(n) for a maximally entangled pair of n-level qudits, 0 for a
    product state.
    """
    layout = state.layout
    if layout.num_parties != 2 or layout.has_ancilla or layout.has_prep \
            or layout.qubus_count:
        raise ValueError("state must be a bare two-party pure state")
    if party not in (0, 1):
        raise ValueError("party index must be 0 or 1")
    psi = np.zeros(layout.party_dims, dtype=complex)
    for t in state.terms:
        psi[t.labels[0], t.labels[1]] += t.amp
    psi /= math.sqrt(state_norm_sq(state))
    schmidt = np.linalg.svd(psi, compute_uv=False)
    probs = schmidt**2
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def _closed_form_log(alpha: float, theta: float, eta: float, n: int) -> float:
    """Natural log of the balanced-stage silent-failure probability.

    Branch with phase offset d (1 <= |d| <= n-1) has weight (n-|d|)/n^2 and
    beam energy 2 |alpha|^2 sin^2(d theta / 2); the detector misses it with
    probability exp(-eta * energy).
    """
    a_sq = abs(alpha) ** 2
    logs = [
        math.log(2.0 * (n - d) / n**2)
        - 2.0 * eta * a_sq * math.sin(d * theta / 2.0) ** 2
        for d in range(1, n)
    ]
    return float(np.logaddexp.reduce(logs))


def error_prob_closed_form(alpha, theta: float, eta: float, n: int) -> float:
    """Closed-form silent-failure probability of one balanced stage.

    At n = 3 and eta = 1 this is
    (4/9) exp(-2 |a|^2 sin^2(t/2)) + (2/9) exp(-2 |a|^2 sin^2 t).
    May underflow to 0.0 for bright beams; use :func:`_closed_form_log`
    when the log value is needed.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return math.exp(_closed_form_log(abs(alpha), theta, eta, n))


def mean_branch_photons(alpha, theta: float, d: int) -> float:
    """Mean photon number |alpha (1 - e^{i d theta}) / sqrt(2)|^2 of the
    failure branch with phase offset d: 2 |alpha|^2 sin^2(d theta / 2)."""
    return 2.0 * abs(alpha) ** 2 * math.sin(d * theta / 2.0) ** 2


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over beam amplitude, XPM phase and detector efficiency."""

    alpha_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    eta_values: tuple[float, ...]
    n: int = 3

    def __post_init__(self):
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in self.alpha_values))
        object.__setattr__(self, "theta_values", tuple(float(t) for t in self.theta_values))
        object.__setattr__(self, "eta_values", tuple(float(e) for e in self.eta_values))
        if not (self.alpha_values and self.theta_values and self.eta_values):
            raise ValueError("sweep axes must be non-empty")
        values = self.alpha_values + self.theta_values + self.eta_values
        if any(not math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        if any(a < 0 for a in self.alpha_values):
            raise ValueError("alpha must be >= 0")
        if any(t <= 0 for t in self.theta_values):
            raise ValueError("theta must be > 0")
        if any(not 0.0 <= e <= 1.0 for e in self.eta_values):
            raise ValueError("eta must lie in [0, 1]")
        if self.n < 2:
            raise ValueError("dimension must be >= 2")


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


#: Fixed CSV schema for sweep output.
SWEEP_CSV_HEADER = ("alpha", "theta", "eta", "mean_k1", "mean_k2",
                    "p_err_closed", "p_err_sim")


def sweep_point(alpha: float, theta: float, eta: float, n: int = 3) -> SweepRow:
    """Evaluate one grid point: run the balanced first entangling stage and
    compare its silent-failure probability against the closed form."""
    ancilla = prepare_single_photon_qudit(n)
    outcome = _run_stage(
        ancilla, balanced_coeffs(n), 0, theta, alpha, DetectorModel.on_off(eta)
    )
    closed_log = _closed_form_log(alpha, theta, eta, n)
    return SweepRow(
        alpha=alpha,
        theta=theta,
        eta=eta,
        mean_photons_k1=mean_branch_photons(alpha, theta, 1),
        mean_photons_k2=mean_branch_photons(alpha, theta, 2) if n >= 3 else None,
        p_error_closed=math.exp(closed_log),
        p_error_simulated=outcome.error_prob,
        p_error_closed_log10=closed_log / _LN10,
        p_error_simulated_log10=outcome.error_prob_log / _LN10,
    )


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """One :class:`SweepRow` per grid point, ordered by grid index
    (alpha outermost, eta innermost)."""
    points = itertools.product(grid.alpha_values, grid.theta_values, grid.eta_values)
    return [sweep_point(*p, grid.n) for p in points]


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "states": self.states,
            "pairs_checked": self.pairs_checked,
            "max_abs_inner": self.max_abs_inner,
            "max_entropy_error": self.max_entropy_error,
            "symmetric_count": self.symmetric_count,
            "asymmetric_count": self.asymmetric_count,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def verify_basis(n: int) -> BasisReport:
    """Construct all n^2 two-party targets and verify they form a maximally
    entangled orthonormal basis.

    Checks pairwise |<a|b>| < 1e-12 and per-state reduced entropy within
    1e-10 of log2(n).  The k = 0 members are the symmetric family, the
    k != 0 members the asymmetric one.
    """
    if not 2 <= n <= 8:
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
        err = abs(reduced_entropy(states[key], 0) - expected)
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
