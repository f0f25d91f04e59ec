"""Correctness oracle for benchmark requests.

Independent of qubus_forge internals: it reads only public result fields and
computes the closed form itself, from its definition.  A balanced entangling
stage fails silently when a failure branch leaves the herald detector dark.
The branch with phase offset d (1 <= d <= n-1, both signs) has weight
2(n-d)/n^2 and beam energy 2|alpha|^2 sin^2(d theta/2); an on/off detector of
efficiency eta misses it with probability exp(-eta * energy).  The stage's
silent-failure probability is the sum over d, evaluated in log space because
bright beams underflow it.

Tolerances are those of the acceptance suite (tests/test_acceptance.py).
Each check returns a list of problems; an empty list means the result is
correct.
"""

from __future__ import annotations

import itertools
import json
import math

STAGE_REL_TOL = 1e-10  # per-stage error probability vs closed form, relative
SUCCESS_ABS_TOL = 1e-8  # success probability vs n^-parties, absolute
FIDELITY_TOL = 1e-9  # fidelity vs target, absolute
PHOTONS_REL_TOL = 1e-12  # mean branch photon number vs its definition

_LN10 = math.log(10.0)


def closed_form_log(n: int, alpha: float, theta: float, eta: float) -> float:
    """Natural log of the silent-failure probability of one balanced stage."""
    a_sq = abs(alpha) ** 2
    logs = [
        math.log(2.0 * (n - d) / (n * n))
        - eta * 2.0 * a_sq * math.sin(d * theta / 2.0) ** 2
        for d in range(1, n)
    ]
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _log_rel_error(got_log: float, want_log: float) -> float:
    """Relative error of exp(got_log) against exp(want_log)."""
    return abs(math.expm1(got_log - want_log))


def check_generation(
    n: int,
    parties: int,
    alpha: float,
    theta: float,
    eta: float,
    success_prob: float,
    fidelity: float | None,
    failed_stage: int | None,
    stage_error_logs: list[float | None],
) -> list[str]:
    """Checks shared by in-process reports and CLI JSON output."""
    problems = []
    if failed_stage is not None:
        problems.append(f"stage {failed_stage} failed to herald")
    if len(stage_error_logs) != parties:
        problems.append(f"{len(stage_error_logs)} stages reported, expected {parties}")
    want = closed_form_log(n, alpha, theta, eta)
    for stage, got in enumerate(stage_error_logs):
        if got is None or not math.isfinite(got):
            problems.append(f"stage {stage} error_prob_log is {got!r}")
        elif _log_rel_error(got, want) > STAGE_REL_TOL:
            problems.append(
                f"stage {stage} error probability off the closed form by "
                f"{_log_rel_error(got, want):.3e} relative"
            )
    expected_success = float(n) ** -parties
    if not abs(success_prob - expected_success) <= SUCCESS_ABS_TOL:
        problems.append(f"success_prob {success_prob!r} != n^-M = {expected_success!r}")
    if fidelity is None or not abs(fidelity - 1.0) <= FIDELITY_TOL:
        problems.append(f"fidelity_vs_target {fidelity!r} is not 1")
    return problems


def check_report(item, report) -> list[str]:
    """Check a GenerationReport for a (n, parties, shifts, phases, alpha,
    theta, eta) request."""
    n, parties, _shifts, _phases, alpha, theta, eta = item
    return check_generation(
        n,
        parties,
        alpha,
        theta,
        eta,
        report.success_prob,
        report.fidelity_vs_target,
        report.failed_stage,
        [stage.error_prob_log for stage in report.per_stage],
    )


def check_sweep(item, rows) -> list[str]:
    """Check sweep rows for a (n, alphas, thetas, etas) grid: one row per
    point, in grid order (alpha outermost, eta innermost), each matching the
    closed form."""
    n, alphas, thetas, etas = item
    points = list(itertools.product(alphas, thetas, etas))
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} grid points"]
    problems = []
    for index, (row, (alpha, theta, eta)) in enumerate(zip(rows, points)):
        if (row.alpha, row.theta, row.eta) != (alpha, theta, eta):
            problems.append(f"row {index} is out of grid order")
            continue
        want = closed_form_log(n, alpha, theta, eta)
        for field in ("p_error_closed_log10", "p_error_simulated_log10"):
            got = getattr(row, field)
            if not math.isfinite(got) or _log_rel_error(got * _LN10, want) > STAGE_REL_TOL:
                problems.append(f"row {index} {field} {got!r} off the closed form")
        for d, field in ((1, "mean_photons_k1"), (2, "mean_photons_k2")):
            photons = 2.0 * alpha * alpha * math.sin(d * theta / 2.0) ** 2
            got = getattr(row, field)
            if not abs(got - photons) <= PHOTONS_REL_TOL * photons:
                problems.append(f"row {index} {field} {got!r} != {photons!r}")
    return problems


def check_cli(item, returncode: int, stdout: str) -> list[str]:
    """Check one ``generate --n 3 --shifts 0,1 --balanced`` CLI launch."""
    alpha, theta = item
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
        stage_logs = [
            None if s["error_prob_log10"] is None else s["error_prob_log10"] * _LN10
            for s in doc["per_stage"]
        ]
        return check_generation(
            3,
            2,
            alpha,
            theta,
            1.0,
            doc["success_prob"],
            doc["fidelity_vs_target"],
            doc["failed_stage"],
            stage_logs,
        )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CLI output: {exc!r}"]
