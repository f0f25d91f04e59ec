"""Command-line front end.

Four commands: ``prepare`` (dump the balanced single-photon spatial qudit),
``generate`` (run the full protocol), ``sweep`` (feasibility grid over
alpha/theta/eta) and ``verify-basis``.  Results go to stdout as JSON, or to
``--out`` (CSV for sweeps).  All runs are deterministic and seed-free.

Exit codes: 0 success, 2 configuration error, 3 protocol failure
(success probability 0), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import stat
import sys

from .analysis import SweepGrid, run_sweep, verify_basis
from .heralding import DetectorModel, FeedforwardError, HeraldOutcome
from .protocols import ProtocolSpec, generate, prepare_single_photon_qudit
from .state import GRAM_EXACT, _count, state_to_dict

_LN10 = math.log(10.0)

#: Fixed CSV schema for sweep output; a JSON sweep row adds the two log10 keys.
SWEEP_CSV_HEADER = ("alpha", "theta", "eta", "mean_k1", "mean_k2",
                    "p_err_closed", "p_err_sim")


class ConfigError(Exception):
    """Malformed flags or config file; maps to exit code 2."""


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _complex_value(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ConfigError(f"field alpha: expected a number, got {text!r}")


def _coeff_vectors(text: str) -> tuple[tuple[complex, ...], ...]:
    """Parse per-party coefficient vectors: parties split by ';', each a flat
    comma list of re,im pairs."""
    vectors = []
    for part in text.split(";"):
        values = _floats(part)
        if len(values) % 2:
            raise ConfigError("field coeffs: each party needs re,im pairs")
        vectors.append(
            tuple(complex(values[i], values[i + 1]) for i in range(0, len(values), 2))
        )
    return tuple(vectors)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubus-forge",
        description="Simulator for heralded generation of entangled photonic "
        "qudits via coherent-bus cross-phase modulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p, formats=("json",)):
        p.add_argument("--out", help="write results to this path instead of stdout")
        p.add_argument("--output", choices=formats, default=None,
                       help="output format")

    p_prep = sub.add_parser("prepare", help="dump the balanced spatial qudit")
    p_prep.add_argument("--n", type=int, required=True)
    add_output_flags(p_prep)

    p_gen = sub.add_parser("generate", help="run the full generation protocol")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m-parties", type=int, default=2)
    p_gen.add_argument("--shifts", type=str, default=None,
                       help="comma list of per-party offsets; first must be 0")
    p_gen.add_argument("--balanced", action="store_true",
                       help="balanced coefficients for every party")
    p_gen.add_argument("--balanced-phases", type=str, default=None,
                       help="comma list of per-party phase indices m "
                            "(single value: first party only)")
    p_gen.add_argument("--coeffs", type=str, default=None,
                       help="explicit coefficients: parties split by ';', "
                            "each a comma list of re,im pairs")
    p_gen.add_argument("--theta", type=float, default=0.01)
    p_gen.add_argument("--alpha", type=str, default="500")
    p_gen.add_argument("--eta", type=float, default=1.0)
    p_gen.add_argument("--dump-state", action="store_true",
                       help="include the final state in the JSON output")
    add_output_flags(p_gen)

    p_sweep = sub.add_parser("sweep", help="feasibility sweep over alpha/theta/eta")
    p_sweep.add_argument("--alpha", type=str, required=True)
    p_sweep.add_argument("--theta", type=str, required=True)
    p_sweep.add_argument("--eta", type=str, required=True)
    p_sweep.add_argument("--n", type=int, default=3)
    add_output_flags(p_sweep, formats=("json", "csv"))

    p_basis = sub.add_parser("verify-basis",
                             help="check the maximally entangled target basis")
    p_basis.add_argument("--n", type=int, required=True)
    add_output_flags(p_basis)

    return parser


def _normalize(args: argparse.Namespace) -> argparse.Namespace:
    """Parse the list-valued flags and alpha in place, in the order their
    errors are reported, and resolve the output format."""
    if args.command == "generate":
        # bounded before the default shifts, of length parties, are built
        parties = _count(args.m_parties, "parties")
        args.shifts = _ints(args.shifts) if args.shifts is not None else (0,) * parties
        modes = (args.balanced, args.balanced_phases is not None, args.coeffs is not None)
        if sum(modes) != 1:
            raise ConfigError(
                "exactly one of --balanced, --balanced-phases, --coeffs is required"
            )
        if args.balanced_phases is not None:
            phases = _ints(args.balanced_phases)
            if len(phases) == 1 and parties > 1:
                phases += (0,) * (parties - 1)
            if len(phases) != parties:
                raise ConfigError("field balanced-phases: need one index per party")
            args.balanced_phases = phases
        elif args.coeffs is not None:
            args.coeffs = _coeff_vectors(args.coeffs)
        args.alpha = _complex_value(args.alpha)
    elif args.command == "sweep":
        args.alpha = _floats(args.alpha)
        args.theta = _floats(args.theta)
        args.eta = _floats(args.eta)
    if args.output is None:
        args.output = "csv" if args.command == "sweep" and args.out else "json"
    return args


# --- config files -----------------------------------------------------------

_BOOL_FLAGS = ("balanced", "dump_state")


def config_to_text(args: argparse.Namespace) -> str:
    """Flat key = value rendering of parsed flags; re-parses to equal flags."""
    lines = [f"command = {args.command}", f"n = {args.n}"]
    if args.command == "generate":
        lines.append(f"m_parties = {args.m_parties}")
        lines.append("shifts = " + ",".join(map(str, args.shifts)))
        if args.balanced:
            lines.append("balanced = true")
        elif args.balanced_phases is not None:
            lines.append("balanced_phases = " + ",".join(map(str, args.balanced_phases)))
        else:
            lines.append(
                "coeffs = "
                + ";".join(
                    ",".join(f"{c.real!r},{c.imag!r}" for c in vec)
                    for vec in args.coeffs
                )
            )
        alpha = args.alpha
        lines.append(f"theta = {args.theta!r}")
        lines.append(
            "alpha = "
            + (repr(alpha.real) if alpha.imag == 0 else repr(alpha).strip("()"))
        )
        lines.append(f"eta = {args.eta!r}")
        lines.append(f"dump_state = {'true' if args.dump_state else 'false'}")
    elif args.command == "sweep":
        for key in ("alpha", "theta", "eta"):
            lines.append(f"{key} = " + ",".join(map(repr, getattr(args, key))))
    lines.append(f"output = {args.output}")
    if args.out:
        lines.append(f"out = {args.out}")
    return "\n".join(lines) + "\n"


def config_text_to_argv(text: str) -> list[str]:
    """Turn config-file text into an argv prefix; later CLI flags override."""
    command = None
    flags: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "command":
            if value not in _RUNNERS:
                raise ConfigError(f"config line {lineno}: unknown command {value!r}")
            command = value
        elif key in _BOOL_FLAGS:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"config line {lineno}: {key} must be true/false")
            if value.lower() == "true":
                flags.append("--" + key.replace("_", "-"))
        elif value.startswith("-"):
            # argparse would read "--theta -1e-05" as a flag after --theta
            flags.append("--" + key.replace("_", "-") + "=" + value)
        else:
            flags.extend(("--" + key.replace("_", "-"), value))
    if command is None:
        raise ConfigError("config file does not name a command")
    return [command] + flags


# --- output rendering --------------------------------------------------------


def _finite(value: float | None) -> float | None:
    """NaN/inf are not valid JSON; map them to null."""
    if value is None or not math.isfinite(value):
        return None
    return value


def _log10_or_none(value: float) -> float | None:
    if value <= 0.0:
        return None
    return math.log10(value)


def _success_log10(report) -> float | None:
    """log10 of the success probability.  When every stage heralded but the
    product of their probabilities underflowed to 0.0, it is the sum of the
    stage log10s."""
    if report.success_prob > 0.0 or report.failed_stage is not None:
        return _log10_or_none(report.success_prob)
    return math.fsum(math.log10(outcome.success_prob) for outcome in report.per_stage)


def _herald_dict(stage: int, outcome: HeraldOutcome) -> dict:
    return {
        "stage": stage,
        "success_prob": outcome.success_prob,
        "error_prob": outcome.error_prob,
        "error_prob_log10": _finite(outcome.error_prob_log / _LN10),
        "branch_table": [b.to_dict() for b in outcome.branch_table],
    }


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _run_generate(args: argparse.Namespace) -> tuple[str, int]:
    detector = DetectorModel(args.eta)
    if args.coeffs is not None:
        spec = ProtocolSpec(args.n, args.m_parties, args.shifts, args.coeffs,
                            args.theta, args.alpha, detector)
    else:
        spec = ProtocolSpec.balanced(args.n, args.m_parties, args.shifts, args.theta,
                                     args.alpha, detector, args.balanced_phases)
    report = generate(spec)
    doc = {
        "command": "generate",
        "n": args.n,
        "parties": args.m_parties,
        "shifts": list(args.shifts),
        "theta": args.theta,
        "alpha": [spec.alpha.real, spec.alpha.imag],
        "eta": args.eta,
        "norm_mode": GRAM_EXACT,
        "success_prob": report.success_prob,
        "success_prob_log10": _success_log10(report),
        "error_prob_total": report.error_prob_total,
        "error_prob_total_log10": _finite(report.error_prob_total_log / _LN10),
        "fidelity_vs_target": report.fidelity_vs_target,
        "failed_stage": report.failed_stage,
        "per_stage": [
            _herald_dict(i, outcome) for i, outcome in enumerate(report.per_stage)
        ],
    }
    if args.dump_state:
        doc["final_state"] = state_to_dict(report.final_state)
    code = 3 if report.failed_stage is not None else 0
    return _json(doc), code


def _run_prepare(args: argparse.Namespace) -> tuple[str, int]:
    state = prepare_single_photon_qudit(args.n)
    return _json({"command": "prepare", "n": args.n, "state": state_to_dict(state)}), 0


def _run_verify_basis(args: argparse.Namespace) -> tuple[str, int]:
    report = verify_basis(args.n)
    doc = {"command": "verify-basis", **dataclasses.asdict(report),
           "passed": report.passed}
    return _json(doc), 0


def _run_sweep(args: argparse.Namespace) -> tuple[str, int]:
    rows = []
    for r in run_sweep(SweepGrid(args.alpha, args.theta, args.eta, args.n)):
        row = dict(zip(SWEEP_CSV_HEADER, (
            r.alpha, r.theta, r.eta, r.mean_photons_k1, r.mean_photons_k2,
            r.p_error_closed, r.p_error_simulated,
        )))
        row["p_err_closed_log10"] = _finite(r.p_error_closed_log10)
        row["p_err_sim_log10"] = _finite(r.p_error_simulated_log10)
        rows.append(row)
    if args.output == "json":
        return _json({"command": "sweep", "n": args.n, "rows": rows}), 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    # csv writes a float as its repr and None (mean_k2 at n = 2) as ""
    writer.writerows([row[key] for key in SWEEP_CSV_HEADER] for row in rows)
    return buf.getvalue(), 0


_RUNNERS = {
    "prepare": _run_prepare,
    "generate": _run_generate,
    "sweep": _run_sweep,
    "verify-basis": _run_verify_basis,
}


def parse_argv(argv: list[str]) -> tuple[argparse.Namespace, bool]:
    """Resolve --config/--dump-config and parse the rest; returns the
    normalized flags and whether to dump them instead of running."""
    argv = list(argv)
    dump_config = False
    if "--dump-config" in argv:
        dump_config = True
        argv.remove("--dump-config")
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            raise ConfigError("--config needs a file path")
        path = argv[idx + 1]
        rest = argv[:idx] + argv[idx + 2 :]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        # the command comes from the file; remaining argv flags override
        argv = config_text_to_argv(text) + rest
    parser = _build_parser()
    return _normalize(parser.parse_args(argv)), dump_config


def _check_out(path: str) -> None:
    """Raise the ``OSError`` that opening ``path`` for writing would raise
    when its parent cannot be reached or is no directory, or ``path`` names
    a directory, creating nothing, so a run whose result cannot be written
    never starts.  What only the write can tell (e.g. permissions, a full
    disk) is reported by the write."""
    try:
        parent = os.stat(os.path.dirname(path.rstrip(os.sep)) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if not stat.S_ISDIR(parent.st_mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if path.endswith(os.sep) or os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output file: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, dump_config = parse_argv(argv)
    except (ConfigError, ValueError) as exc:  # a ValueError from the flags' bounds
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)

    if dump_config:
        sys.stdout.write(config_to_text(args))
        return 0

    if args.out:
        try:
            _check_out(args.out)
        except OSError as exc:
            return _cannot_write(exc)
    try:
        rendered, code = _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeedforwardError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            return _cannot_write(exc)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
