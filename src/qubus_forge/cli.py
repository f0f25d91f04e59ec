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
import io
import json
import math
import sys
from dataclasses import dataclass

from .analysis import (
    SWEEP_CSV_HEADER,
    SweepGrid,
    run_sweep,
    verify_basis,
)
from .heralding import DetectorModel, FeedforwardError, HeraldOutcome
from .protocols import (
    ProtocolSpec,
    balanced_coeffs,
    generate,
    phased_coeffs,
    prepare_single_photon_qudit,
)
from .state import GRAM_EXACT, state_to_dict

_LN10 = math.log(10.0)
COMMANDS = ("prepare", "generate", "sweep", "verify-basis")


class ConfigError(Exception):
    """Malformed flags or config file; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Canonical, fully-parsed description of one CLI run."""

    command: str
    n: int = 3
    parties: int = 2
    shifts: tuple[int, ...] = ()
    coeff_mode: str = "balanced"  # balanced | phases | explicit
    phase_indices: tuple[int, ...] = ()
    coeffs: tuple[tuple[complex, ...], ...] = ()
    theta: float = 0.01
    alpha: complex = 500.0 + 0j
    eta: float = 1.0
    alpha_values: tuple[float, ...] = ()
    theta_values: tuple[float, ...] = ()
    eta_values: tuple[float, ...] = ()
    output: str = "json"
    out: str | None = None
    dump_state: bool = False

    def protocol_spec(self) -> ProtocolSpec:
        if self.coeff_mode == "balanced":
            coeffs = tuple(balanced_coeffs(self.n) for _ in range(self.parties))
        elif self.coeff_mode == "phases":
            coeffs = tuple(phased_coeffs(self.n, m) for m in self.phase_indices)
        else:
            coeffs = self.coeffs
        detector = DetectorModel.on_off(self.eta)
        return ProtocolSpec(
            n=self.n,
            parties=self.parties,
            shifts=self.shifts,
            coeffs=coeffs,
            theta=self.theta,
            alpha=self.alpha,
            detector=detector,
        )

    def sweep_grid(self) -> SweepGrid:
        return SweepGrid(self.alpha_values, self.theta_values, self.eta_values, self.n)


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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "generate":
        parties = args.m_parties
        shifts = _ints(args.shifts) if args.shifts is not None else (0,) * parties
        chosen = [
            name
            for name, value in (
                ("balanced", args.balanced),
                ("balanced-phases", args.balanced_phases is not None),
                ("coeffs", args.coeffs is not None),
            )
            if value
        ]
        if len(chosen) != 1:
            raise ConfigError(
                "exactly one of --balanced, --balanced-phases, --coeffs is required"
            )
        coeff_mode, phase_indices, coeffs = "balanced", (), ()
        if args.balanced_phases is not None:
            coeff_mode = "phases"
            phase_indices = _ints(args.balanced_phases)
            if len(phase_indices) == 1 and parties > 1:
                phase_indices = phase_indices + (0,) * (parties - 1)
            if len(phase_indices) != parties:
                raise ConfigError("field balanced-phases: need one index per party")
        elif args.coeffs is not None:
            coeff_mode = "explicit"
            coeffs = _coeff_vectors(args.coeffs)
        if args.output == "csv":
            raise ConfigError("field output: generate only emits json")
        return RunConfig(
            command=command,
            n=args.n,
            parties=parties,
            shifts=shifts,
            coeff_mode=coeff_mode,
            phase_indices=phase_indices,
            coeffs=coeffs,
            theta=args.theta,
            alpha=_complex_value(args.alpha),
            eta=args.eta,
            output=args.output or "json",
            out=args.out,
            dump_state=args.dump_state,
        )
    if command == "sweep":
        default_format = "csv" if args.out else "json"
        return RunConfig(
            command=command,
            n=args.n,
            alpha_values=_floats(args.alpha),
            theta_values=_floats(args.theta),
            eta_values=_floats(args.eta),
            output=args.output or default_format,
            out=args.out,
        )
    # prepare / verify-basis
    return RunConfig(
        command=command,
        n=args.n,
        output=args.output or "json",
        out=args.out,
    )


# --- config files -----------------------------------------------------------

_BOOL_FLAGS = ("balanced", "dump_state")


def config_to_text(cfg: RunConfig) -> str:
    """Flat key = value rendering; re-parses to an equivalent RunConfig."""
    lines = [f"command = {cfg.command}", f"n = {cfg.n}"]
    if cfg.command == "generate":
        lines.append(f"m_parties = {cfg.parties}")
        lines.append("shifts = " + ",".join(str(k) for k in cfg.shifts))
        if cfg.coeff_mode == "balanced":
            lines.append("balanced = true")
        elif cfg.coeff_mode == "phases":
            lines.append(
                "balanced_phases = " + ",".join(str(m) for m in cfg.phase_indices)
            )
        else:
            lines.append(
                "coeffs = "
                + ";".join(
                    ",".join(f"{c.real!r},{c.imag!r}" for c in vec)
                    for vec in cfg.coeffs
                )
            )
        alpha = cfg.alpha
        lines.append(f"theta = {cfg.theta!r}")
        lines.append(
            "alpha = "
            + (repr(alpha.real) if alpha.imag == 0 else repr(alpha).strip("()"))
        )
        lines.append(f"eta = {cfg.eta!r}")
        lines.append(f"dump_state = {'true' if cfg.dump_state else 'false'}")
    elif cfg.command == "sweep":
        lines.append("alpha = " + ",".join(repr(a) for a in cfg.alpha_values))
        lines.append("theta = " + ",".join(repr(t) for t in cfg.theta_values))
        lines.append("eta = " + ",".join(repr(e) for e in cfg.eta_values))
    lines.append(f"output = {cfg.output}")
    if cfg.out:
        lines.append(f"out = {cfg.out}")
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
            if value not in COMMANDS:
                raise ConfigError(f"config line {lineno}: unknown command {value!r}")
            command = value
        elif key in _BOOL_FLAGS:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"config line {lineno}: {key} must be true/false")
            if value.lower() == "true":
                flags.append("--" + key.replace("_", "-"))
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


def _herald_dict(stage: int, outcome: HeraldOutcome) -> dict:
    return {
        "stage": stage,
        "success_prob": outcome.success_prob,
        "error_prob": outcome.error_prob,
        "error_prob_log10": _finite(outcome.error_prob_log / _LN10),
        "branch_table": [b.to_dict() for b in outcome.branch_table],
    }


def _run_generate(cfg: RunConfig) -> tuple[str, int]:
    spec = cfg.protocol_spec()
    report = generate(spec)
    doc = {
        "command": "generate",
        "n": cfg.n,
        "parties": cfg.parties,
        "shifts": list(cfg.shifts),
        "theta": cfg.theta,
        "alpha": [spec.alpha.real, spec.alpha.imag],
        "eta": cfg.eta,
        "norm_mode": GRAM_EXACT,
        "success_prob": report.success_prob,
        "success_prob_log10": _log10_or_none(report.success_prob),
        "error_prob_total": report.error_prob_total,
        "error_prob_total_log10": _log10_or_none(report.error_prob_total),
        "fidelity_vs_target": report.fidelity_vs_target,
        "failed_stage": report.failed_stage,
        "per_stage": [
            _herald_dict(i, outcome) for i, outcome in enumerate(report.per_stage)
        ],
    }
    if cfg.dump_state:
        doc["final_state"] = state_to_dict(report.final_state)
    code = 3 if report.success_prob <= 0.0 else 0
    return json.dumps(doc, indent=2) + "\n", code


def _run_prepare(cfg: RunConfig) -> tuple[str, int]:
    state = prepare_single_photon_qudit(cfg.n)
    doc = {"command": "prepare", "n": cfg.n, "state": state_to_dict(state)}
    return json.dumps(doc, indent=2) + "\n", 0


def _run_verify_basis(cfg: RunConfig) -> tuple[str, int]:
    report = verify_basis(cfg.n)
    doc = {"command": "verify-basis", **report.to_dict()}
    return json.dumps(doc, indent=2) + "\n", 0


def _run_sweep_json(cfg: RunConfig) -> tuple[str, int]:
    rows = run_sweep(cfg.sweep_grid())
    doc = {
        "command": "sweep",
        "n": cfg.n,
        "rows": [
            {
                "alpha": r.alpha,
                "theta": r.theta,
                "eta": r.eta,
                "mean_k1": r.mean_photons_k1,
                "mean_k2": r.mean_photons_k2,
                "p_err_closed": r.p_error_closed,
                "p_err_sim": r.p_error_simulated,
                "p_err_closed_log10": _finite(r.p_error_closed_log10),
                "p_err_sim_log10": _finite(r.p_error_simulated_log10),
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n", 0


def _run_sweep_csv(cfg: RunConfig) -> tuple[str, int]:
    rows = run_sweep(cfg.sweep_grid())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                repr(r.alpha),
                repr(r.theta),
                repr(r.eta),
                repr(r.mean_photons_k1),
                "" if r.mean_photons_k2 is None else repr(r.mean_photons_k2),
                repr(r.p_error_closed),
                repr(r.p_error_simulated),
            ]
        )
    return buf.getvalue(), 0


def run_config(cfg: RunConfig) -> tuple[str, int]:
    """Execute a parsed configuration; returns (rendered output, exit code)."""
    if cfg.command == "generate":
        return _run_generate(cfg)
    if cfg.command == "prepare":
        return _run_prepare(cfg)
    if cfg.command == "verify-basis":
        return _run_verify_basis(cfg)
    if cfg.command == "sweep":
        if cfg.output == "csv":
            return _run_sweep_csv(cfg)
        return _run_sweep_json(cfg)
    raise ConfigError(f"unknown command {cfg.command!r}")


def parse_argv(argv: list[str]) -> tuple[RunConfig, bool]:
    """Resolve --config/--dump-config and parse the rest; returns the config
    and whether to dump it instead of running."""
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
    args = parser.parse_args(argv)
    return _config_from_args(args), dump_config


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg, dump_config = parse_argv(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)

    if dump_config:
        sys.stdout.write(config_to_text(cfg))
        return 0

    try:
        rendered, code = run_config(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeedforwardError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
