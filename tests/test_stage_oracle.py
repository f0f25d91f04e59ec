"""Every stage probability of ``generate`` against its closed form, evaluated
in 40-digit decimal arithmetic.

For coefficient vectors c_i, shifts k_i, beam alpha, XPM phase theta and
detector efficiency eta, with the spatial register's weights p_0(s) = 1/n:

- at stage i, a term with spatial label s and new party label j lands in the
  herald class of offset d = ((s + k_i) mod n) - j, whose herald beam is
  alpha (1 - e^{i d theta}) / sqrt(2);
- the class weight is W_i(d) = sum_s p_{i-1}(s) sum_j |c_i[j]|^2
  [((s + k_i) mod n) - j = d];
- the stage heralds with P_s,i = W_i(0) and fails silently with
  P_E,i = sum_{d != 0} W_i(d) exp(-2 eta |alpha|^2 sin^2(d theta / 2));
- the next stage's weights are p_i(s) prop. to p_{i-1}(s) |c_i[(s + k_i) mod n]|^2;
- the report's success probability is the product of the P_s,i, and its
  total error the chance that some stage is the first to fail silently,
  sum_i P_E,i prod_{j<i} (1 - P_E,j).

This holds when the pre-herald terms have distinct labels, as every
protocol state's do.  The closed form uses nothing of the simulator but the
spec, and :mod:`decimal` (40 digits, with sin from its Taylor series) keeps
its own rounding ~24 digits below a double's, so the difference is the
simulator's rounding alone.  It is counted in ulps of the exact value for a
probability, and in ulps of max(1, |log|) for a natural log: a log near
-0.007 that is 1e-16 off is 114 ulps of itself off, but 0.5 ulp of 1.

The final state has a closed form too.  Heralded, erased and corrected, it
is sum_j A_j (x)_i |(j + k_i) mod n>_i / ||A|| with A_j = prod_i
c_i[(j + k_i) mod n], and no other term: the feedforward corrects every
detection outcome to outcome 0's phase, which is the phase of this form.
Its amplitudes are counted in ulps of 1, and its global phase, read off the
largest term, in radians.
"""

from __future__ import annotations

import cmath
import dataclasses
import decimal
import importlib.util
import math
import random
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubus_forge import DetectorModel, ProtocolSpec, generate
from qubus_forge.protocols import _erased

DIGITS = 40

# Ulp bounds, each twice the worst error measured over 14,000 seeded random
# specs drawn as below (n 2..6, 2-4 parties, every regime), rounded up: stage
# success_prob 8.2 ulps, report success_prob 9.7, stage error_prob_log 30.3
# and report error_prob_total_log 23.6.  A log's error grows with the
# rounding of the herald beam's |beta|^2 = 2 |alpha|^2 sin^2(d theta / 2),
# which the simulator reaches through two XPM phase rotations and a beam
# splitter.
STAGE_SUCCESS_ULPS = 17
SUCCESS_ULPS = 20
STAGE_ERROR_LOG_ULPS = 61
ERROR_TOTAL_LOG_ULPS = 48

# The log bounds over the report digest's generate specs, each twice the
# worst measured over 20,000 specs drawn as tools/report_digest.py draws its
# random ones (n 2..9, 2-3 parties, |alpha| 20-900 at a uniform phase, theta
# 1e-3 to 10^-0.5): stage error_prob_log 471.2 ulps and error_prob_total_log
# 664.7; 300 real-alpha specs at n 8..48 read at most 65.1 and 128.5.  Their
# probabilities stay within the bounds above (6.5 and 7.9 ulps).  The logs
# do not: the herald beam alpha (e^{i phi} - e^{i phi'}) / sqrt(2) is a
# difference of two beams of size |alpha|, and each part of those is
# rounded to ~1 ulp of |alpha|.  With a real alpha and small XPM phases the
# large parts lie on the real axis and the difference keeps their rounding
# out of |beta|^2; a complex alpha, or phases up to ~n theta at large n,
# leaves it in, so |beta|^2 is off by ~1 / (d theta) ulps of itself.  Spec
# 28 of the digest (n = 4, |alpha| 832, theta 2.6e-3) reads 249 ulps off on
# one stage, and 3.1-4.8 with alpha turned real; the wide n = 32 spec (real
# alpha 500, theta 0.01) reads 62.2.
DIGEST_STAGE_ERROR_LOG_ULPS = 943
DIGEST_ERROR_TOTAL_LOG_ULPS = 1330


# Final-state bounds, each twice the worst measured over the final states of
# 38,895 seeded specs, rounded up: 18,741 drawn as below (the other 1,259 of
# 20,000 draws have a stage that cannot herald), 20,000 drawn as
# tools/report_digest.py draws its random ones, and the digest's own 154.
# The worst amplitude error is 1.715 ulps of 1, the worst global phase
# 3.88e-16 rad.  Balanced specs at the paper's working point, n 2..32 with
# two and three parties, read at most 0.964 ulps and no phase error.
FINAL_AMP_ULPS = 3.5
FINAL_PHASE_RAD = 8e-16


def _sin(x: Decimal) -> Decimal:
    """sin x from its Taylor series, in the current decimal context."""
    with decimal.localcontext() as ctx:
        ctx.prec += 4
        term = total = x
        k = 1
        while True:
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            k += 1
            if total + term == total:
                break
            total += term
    return +total


def _log(x: Decimal) -> Decimal:
    return x.ln() if x else Decimal("-Infinity")


def _closed_form(n, coeffs, shifts, alpha: complex, theta: float, eta: float):
    """([(P_s,i, log P_E,i)], P_success, log P_E,total) in 40-digit decimal,
    over the stages up to the first that cannot herald."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        alpha_sq = Decimal(alpha.real) ** 2 + Decimal(alpha.imag) ** 2
        half_theta, eta = Decimal(theta) / 2, Decimal(eta)
        silent = {d: (-2 * eta * alpha_sq * _sin(d * half_theta) ** 2).exp()
                  for d in range(1 - n, n)}
        p = [Decimal(1) / n] * n
        stages, success = [], Decimal(1)
        total, no_error = Decimal(0), Decimal(1)
        for c, k in zip(coeffs, shifts):
            w = [Decimal(x.real) ** 2 + Decimal(x.imag) ** 2 for x in c]
            weight = dict.fromkeys(range(1 - n, n), Decimal(0))
            for s in range(n):
                for j in range(n):
                    weight[(s + k) % n - j] += p[s] * w[j]
            p_s = weight[0]
            p_e = sum((weight[d] * silent[d] for d in weight if d), Decimal(0))
            stages.append((p_s, _log(p_e)))
            success *= p_s
            total += p_e * no_error
            no_error *= 1 - p_e
            if not p_s:
                break
            p = [p[s] * w[(s + k) % n] for s in range(n)]
            norm = sum(p)
            p = [x / norm for x in p]
        return stages, success, _log(total)


def _final_state(n, coeffs, shifts) -> dict:
    """{labels: (real, imaginary)} of the closed-form final state, in
    40-digit decimal: every j with A_j != 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        amps = {}
        for j in range(n):
            re, im = Decimal(1), Decimal(0)
            for c, k in zip(coeffs, shifts):
                x = c[(j + k) % n]
                x_re, x_im = Decimal(x.real), Decimal(x.imag)
                re, im = re * x_re - im * x_im, re * x_im + im * x_re
            if re or im:
                amps[tuple([(j + k) % n for k in shifts])] = (re, im)
        norm = sum(re * re + im * im for re, im in amps.values()).sqrt()
        return {labels: (re / norm, im / norm) for labels, (re, im) in amps.items()}


def _final_state_errors(state, exact: dict) -> tuple[float, float]:
    """(worst amplitude error in ulps of 1, global phase in radians) of
    ``state`` against :func:`_final_state`, after checking its labels."""
    assert sorted(state.labels) == sorted(exact)
    got = dict(zip(state.labels, state.amps))
    ulp = Decimal(math.ulp(1.0))
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        worst = max(
            ((Decimal(got[labels].real) - re) ** 2 + (Decimal(got[labels].imag) - im) ** 2).sqrt()
            for labels, (re, im) in exact.items()
        )
        # the phase of got / exact at the largest term, as Im(got conj(exact)) / |exact|^2
        labels = max(exact, key=lambda lab: exact[lab][0] ** 2 + exact[lab][1] ** 2)
        re, im = exact[labels]
        g_re, g_im = Decimal(got[labels].real), Decimal(got[labels].imag)
        phase = (g_im * re - g_re * im) / (re * re + im * im)
    return float(worst / ulp), abs(float(phase))


def _assert_final_state_matches_the_closed_form(spec: ProtocolSpec, rng: random.Random) -> None:
    """Generate ``spec`` with a cold erasure memo, and again with alpha,
    theta and eta re-drawn, which reuses the erasure and so returns the
    same final state; hold it to the closed form, and to a cold run of the
    re-drawn spec, repr for repr."""
    redrawn = dataclasses.replace(
        spec,
        alpha=cmath.rect(rng.uniform(0.5, 1000.0), rng.uniform(-math.pi, math.pi)),
        theta=10.0 ** rng.uniform(-3.0, -1.0),
        detector=DetectorModel(rng.uniform(0.3, 1.0)),
    )
    _erased.clear()
    cold = generate(spec)
    if cold.failed_stage is not None:  # no erasure ran
        assert not cold.final_state.amps and not _erased.entries
        return
    reused = generate(redrawn)
    assert (_erased.hits, _erased.misses) == (1, 1)
    assert reused.final_state is cold.final_state
    exact = _final_state(spec.n, spec.coeffs, spec.shifts)
    amp_ulps, phase = _final_state_errors(reused.final_state, exact)
    assert amp_ulps <= FINAL_AMP_ULPS, amp_ulps
    assert phase <= FINAL_PHASE_RAD, phase
    _erased.clear()
    assert repr(generate(redrawn).final_state) == repr(reused.final_state)


def _ulps(got: float, exact: Decimal, log: bool = False) -> float:
    """|got - exact| in ulps of |exact|, or of max(1, |exact|) for a log.
    An exact log of -inf (no failure class) must be matched exactly."""
    if exact.is_infinite():
        assert got == float(exact), (got, exact)
        return 0.0
    scale = abs(float(exact))
    if log:
        scale = max(1.0, scale)
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(scale)))


@st.composite
def _specs(draw):
    """(n, coefficient vectors, shifts, alpha, theta, eta): n <= 6, 2-4
    parties, complex vectors with at most one zero entry each, the first
    shift 0, and a dim (alpha 0.5-3, theta 0.05-1), bright (alpha 50-1000,
    theta 1e-3 to 1e-1, log-uniform) or the paper's (alpha 500, theta 0.01)
    working point, eta 0.3-1."""
    n = draw(st.integers(2, 6))
    parties = draw(st.integers(2, 4))
    entry = st.builds(cmath.rect, st.floats(0.05, 1.0), st.floats(-math.pi, math.pi))
    coeffs = []
    for _ in range(parties):
        vec = draw(st.lists(entry, min_size=n, max_size=n))
        zero = draw(st.none() | st.integers(0, n - 1))
        if zero is not None:
            vec[zero] = 0j
        norm = math.sqrt(sum(abs(c) ** 2 for c in vec))
        coeffs.append(tuple(c / norm for c in vec))
    shifts = (0,) + tuple(draw(st.integers(0, n - 1)) for _ in range(parties - 1))
    regime = draw(st.sampled_from(("dim", "bright", "paper")))
    if regime == "dim":
        alpha, theta = draw(st.floats(0.5, 3.0)), draw(st.floats(0.05, 1.0))
    elif regime == "bright":
        alpha, theta = draw(st.floats(50.0, 1000.0)), 10.0 ** draw(st.floats(-3.0, -1.0))
    else:
        alpha, theta = 500.0, 0.01
    eta = draw(st.floats(0.3, 1.0))
    return n, tuple(coeffs), shifts, alpha, theta, eta


def _assert_matches_the_closed_form(
    spec: ProtocolSpec,
    stage_log_ulps=STAGE_ERROR_LOG_ULPS,
    total_log_ulps=ERROR_TOTAL_LOG_ULPS,
) -> None:
    """Generate ``spec`` and hold every stage probability of the report to
    the closed form, within the ulp bounds above and the given bounds on
    the logs."""
    report = generate(spec)
    stages, success, total_log = _closed_form(
        spec.n, spec.coeffs, spec.shifts, spec.alpha, spec.theta, spec.detector.efficiency
    )
    # the run stops at the first stage that cannot herald, as the closed form does
    assert len(report.per_stage) == len(stages)
    assert (report.failed_stage is None) == (stages[-1][0] > 0)
    for outcome, (p_s, p_e_log) in zip(report.per_stage, stages):
        assert _ulps(outcome.success_prob, p_s) <= STAGE_SUCCESS_ULPS
        assert _ulps(outcome.error_prob_log, p_e_log, log=True) <= stage_log_ulps
    assert _ulps(report.success_prob, success) <= SUCCESS_ULPS
    assert _ulps(report.error_prob_total_log, total_log, log=True) <= total_log_ulps


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_specs())
def test_stage_probabilities_match_the_40_digit_closed_form(spec_inputs):
    n, coeffs, shifts, alpha, theta, eta = spec_inputs
    _assert_matches_the_closed_form(
        ProtocolSpec(n, len(shifts), shifts, coeffs, theta, alpha, DetectorModel(eta))
    )


def _report_digest():
    """``tools/report_digest.py``, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_report_digest_specs_match_the_40_digit_closed_form():
    # The digest's own generate specs: 150 seeded draws (n 2..9, 2-3
    # parties, complex alpha, a fifth of them with arbitrary coefficients)
    # and the four wide shapes of the wide_qudit workload.  The digest
    # records none of them as rejected, so every one is built and checked.
    # Worst measured: stage success_prob 6.9 ulps, success_prob 4.5, stage
    # error_prob_log 249.0 and error_prob_total_log 163.1.
    builds = list(_report_digest().generate_specs())
    assert len(builds) == 154
    for build in builds:
        _assert_matches_the_closed_form(
            build(), DIGEST_STAGE_ERROR_LOG_ULPS, DIGEST_ERROR_TOTAL_LOG_ULPS
        )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_specs(), st.randoms(use_true_random=False))
def test_final_state_matches_the_40_digit_closed_form(spec_inputs, rng):
    n, coeffs, shifts, alpha, theta, eta = spec_inputs
    _assert_final_state_matches_the_closed_form(
        ProtocolSpec(n, len(shifts), shifts, coeffs, theta, alpha, DetectorModel(eta)), rng
    )


def test_the_report_digest_final_states_match_the_40_digit_closed_form():
    # every one of the digest's 154 generate specs, and each again through
    # the erasure memo at a re-drawn working point
    rng = random.Random("final states")
    for build in _report_digest().generate_specs():
        _assert_final_state_matches_the_closed_form(build(), rng)


def test_the_closed_form_holds_the_paper_qutrit_numbers():
    # The oracle itself, at the paper's working point with balanced qutrits:
    # P_s = 1/3 per stage and, at stage one, P_E = (4/9) e^{-E_1} + (2/9)
    # e^{-E_2} with E_d = 2 |alpha|^2 sin^2(d theta / 2) (criterion 2's form)
    balanced = (1 / math.sqrt(3),) * 3
    stages, success, _ = _closed_form(3, (balanced,) * 2, (0, 1), 500 + 0j, 0.01, 1.0)
    energy = [2 * 500.0**2 * math.sin(d * 0.005) ** 2 for d in (1, 2)]
    first_error = 4 / 9 * math.exp(-energy[0]) + 2 / 9 * math.exp(-energy[1])
    assert [float(p_s) for p_s, _ in stages] == pytest.approx([1 / 3, 1 / 3], rel=1e-15)
    assert float(success) == pytest.approx(1 / 9, rel=1e-15)
    assert math.exp(float(stages[0][1])) == pytest.approx(first_error, rel=1e-14)
