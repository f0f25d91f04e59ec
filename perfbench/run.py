"""qubus-forge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; no install is needed.

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
every per-layer metric of a traced run, plus the tracing overhead measured
against an untraced run of the same inputs.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record (machine, seed, metrics with their percentiles and sample
counts) to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("paper_point", "wide_qudit", "sweep_grid", "cli_cold")

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the share
#: of the parent's median by which a metric may worsen before a change
#: counts as a regression.
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_tail_ms", "ms", "lower", 0.2),
    ("requests_per_s", "1/s", "higher", 0.2),
    ("points_per_s", "1/s", "higher", 0.2),
    ("ops_ok_frac", "frac", "higher", 0.001),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Fresh set-up processes per run; setup_s is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def run_child(cmd, timeout: float, env) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (including any processes it started) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{cmd[1:3]} timed out after {timeout} s\n{err}")
    except BaseException:  # interrupted or terminated: take the children down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode}\n{err}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def machine_info(cpus) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def nearest_rank(values, pct: float):
    """The pct-th percentile by nearest rank: the smallest sample with at
    least pct percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(workload, phase, setup_raw, setup_scaled, peak_rss_kb, attempted, failed):
    """Every END_TO_END metric, with notes saying how each was taken."""
    latencies_ms = [x * 1000.0 for x in phase["latencies_s"]]
    raw_ms = [x * 1000.0 for x in phase["raw_latencies_s"]]
    count = len(latencies_ms)
    beyond = count - max(1, math.ceil(workload.tail_pct / 100.0 * count))
    busy = sum(phase["latencies_s"])
    completed = phase["attempted"] - phase["failed"]
    values = {
        "latency_p50_ms": nearest_rank(latencies_ms, 50.0),
        "latency_tail_ms": nearest_rank(latencies_ms, workload.tail_pct),
        "requests_per_s": completed / busy,
        "points_per_s": phase["points"] / busy,
        "ops_ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    notes = {
        "latency_p50_ms": f"p50 of {count} requests; raw {nearest_rank(raw_ms, 50.0):.4g}",
        "latency_tail_ms": f"p{workload.tail_pct:g} of {count} requests, {beyond} beyond it; "
        f"raw {nearest_rank(raw_ms, workload.tail_pct):.4g}"
        + ("" if beyond >= 10 else " (fewer than 10 beyond: run longer)"),
        "requests_per_s": f"{completed} completed in {busy:.3f} s scaled busy time, one caller; "
        f"raw {completed / sum(phase['raw_latencies_s']):.4g}",
        "points_per_s": f"{phase['points']} points; one point = {workload.point}",
        "ops_ok_frac": f"ops_failed_frac = {failed / attempted:.6g}: "
        f"{failed} failed of {attempted} attempted",
        "setup_s": f"median of {len(setup_scaled)} fresh processes; raw "
        + ", ".join(f"{s:.4f}" for s in setup_raw),
        "peak_rss_mb": "benchmark worker process" if workload.in_process
        else "largest CLI process",
    }
    return values, notes


def setup_samples(cmd, env):
    """Set-up times of fresh processes, raw and scaled to nominal machine
    speed by launch references taken before and after each."""
    launches = [speed.launch_s()]
    raw = []
    for _ in range(SETUP_REPEATS):
        probe = run_child(cmd, SETUP_TIMEOUT_S, env)
        raw.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
        launches.append(speed.launch_s())
    scaled = [
        t * speed.LAUNCH_NOMINAL_S * 2.0 / (before + after)
        for t, before, after in zip(raw, launches, launches[1:])
    ]
    return raw, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the benchmark and every process it starts, so that the
    # speed reference is taken on the CPU the requests run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    package = ROOT / "src" / "qubus_forge"
    if not (package / "__init__.py").is_file():
        print(f"error: no qubus_forge sources under {package}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    OUT_DIR.mkdir(exist_ok=True)
    py = sys.executable
    worker = str(HERE / "worker.py")

    # Build: byte-compile the package so that no timed process compiles it.
    run_child([py, "-m", "compileall", "-q", str(package), str(HERE)], SETUP_TIMEOUT_S, env)
    if not args.trace:
        setup_raw, setup_scaled = setup_samples(
            [py, worker, "setup", args.workload, str(args.seed)], env
        )
    done = run_child(
        [py, worker, "run", args.workload, str(args.seed), repr(args.seconds),
         str(args.trace), str(OUT_DIR)],
        WORKER_TIMEOUT_S,
        env,
    )
    report = json.loads(done.stdout.splitlines()[-1])

    workload = argparse.Namespace(**report["workload"])
    phases = [report["warmup"]] + [
        report[k] for k in ("measured", "untraced", "traced") if k in report
    ]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [issue for p in phases for issue in p["problems"]]

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(cpus),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        "machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()),
        f"why: {workload.why}",
    ]
    if not args.trace:
        values, notes = end_to_end(
            workload, report["measured"], setup_raw, setup_scaled, report["peak_rss_kb"],
            attempted, failed,
        )
        units = {name: unit for name, unit, _, _ in END_TO_END}
        record["notes"] = notes
        refs = report["measured"]["reference_s"]
        nominal = speed.KERNEL_NOMINAL_S if workload.in_process else speed.LAUNCH_NOMINAL_S
        record["reference"] = {
            "task": "kernel" if workload.in_process else "interpreter start importing numpy",
            "nominal_s": nominal,
            "samples_s": refs,
        }
        lines.append(
            f"machine speed: reference task median {statistics.median(refs) * 1e3:.4g} ms "
            f"over {len(refs)} samples, nominal {nominal * 1e3:.4g} ms; timings below are "
            "scaled to nominal speed (raw values in the notes)"
        )
    else:
        values = report["per_layer"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        untraced, traced = report["untraced"], report["traced"]
        p50_off = nearest_rank(untraced["latencies_s"], 50.0) * 1000.0
        p50_on = nearest_rank(traced["latencies_s"], 50.0) * 1000.0
        busy_off = sum(untraced["latencies_s"])
        busy_on = sum(traced["latencies_s"])
        record["overhead"] = {
            "requests": traced["attempted"],
            "latency_p50_ms_untraced": p50_off,
            "latency_p50_ms_traced": p50_on,
            "latency_p50_ms_overhead": p50_on - p50_off,
            "busy_s_untraced": busy_off,
            "busy_s_traced": busy_on,
            "spans": report["span_count"],
            "spans_file": os.path.relpath(report["spans_file"], ROOT),
        }
        lines.append(
            f"tracing overhead: p50 {p50_off:.4f} ms untraced -> {p50_on:.4f} ms traced "
            f"({(p50_on / p50_off - 1.0) * 100.0:+.1f}%), busy {busy_off:.3f} s -> "
            f"{busy_on:.3f} s ({(busy_on / busy_off - 1.0) * 100.0:+.1f}%) over the same "
            f"{traced['attempted']} requests; {report['span_count']} spans in "
            f"{record['overhead']['spans_file']}"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    for name, metric in metrics.items():
        note = record.get("notes", {}).get(name, "")
        lines.append(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    lines.append(f"correct: {failed == 0} ({failed} failed of {attempted} attempted)")
    for problem in problems:
        lines.append(f"  problem: {problem}")
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
