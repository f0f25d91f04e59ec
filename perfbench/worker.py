"""Benchmark worker: one fresh process per set-up sample or workload run.

    python perfbench/worker.py setup WORKLOAD SEED
    python perfbench/worker.py run WORKLOAD SEED SECONDS TRACE OUT_DIR

``setup`` times ``import qubus_forge`` plus building the workload's inputs.
``run`` does the same set-up, one untimed warm-up block, then the closed
loop.  With TRACE 0 it measures for SECONDS.  With TRACE 1 it measures
untraced for SECONDS/2, then replays the same inputs with the layers traced,
and compares every result with its untraced twin.  Either way every result
goes through the oracle, and the worker prints one JSON object on stdout.

Nothing but the standard library is imported at module level, so that the
set-up time covers the whole import of qubus_forge.
"""

import itertools
import json
import os
import resource
import sys
import time
import traceback

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_probe.py")
MAX_PROBLEMS = 5


def setup(name: str, seed: int):
    """Import qubus_forge and build the workload's inputs; returns the time
    this took and the inputs."""
    start = time.perf_counter()
    import qubus_forge  # noqa: F401

    import workloads

    pool, rest = workloads.WORKLOADS[name].prebuild(seed)
    return time.perf_counter() - start, pool, rest


def measure(workload, call, blocks, deadline=None, tracer=None, expected=None, reference=None):
    """Closed loop over ``blocks`` until ``deadline`` (checked between
    blocks) or the blocks run out.

    Each result is checked by the oracle; when ``expected`` holds the
    fingerprints of an earlier phase, each result must also match its twin.
    Timings are scaled to nominal machine speed by reference samples (see
    speed.py); the oracle and the samples are left out of them.
    """
    import speed
    import workloads

    if reference is None:
        reference = speed.for_workload(workload.in_process)
    intervals, fingerprints, problems, done = [], [], [], []
    failed = points = 0
    with reference.running():
        for block in blocks:
            for item in block:
                reference.maybe_take()
                index = len(intervals)
                if tracer is not None:
                    tracer.request = index
                t0 = time.perf_counter()
                try:
                    result = call(item)
                    issues = []
                except Exception:
                    result = None
                    issues = ["raised " + traceback.format_exc(limit=3)]
                t1 = time.perf_counter()
                intervals.append((t0, t1))
                if not issues:
                    issues = workload.check(item, result)
                fingerprints.append(workloads.fingerprint(result))
                if expected is not None and fingerprints[-1] != expected[index]:
                    issues = issues + ["result differs from the untraced run"]
                if issues:
                    failed += 1
                    if len(problems) < MAX_PROBLEMS:
                        problems.append({"item": repr(item), "issues": issues})
                else:
                    points += workload.points(item)
            done.append(block)
            if deadline is not None and time.perf_counter() >= deadline:
                break
    raw = [t1 - t0 - reference.paused(t0, t1) for t0, t1 in intervals]
    scaled = [reference.scaled(t0, t1) for t0, t1 in intervals]
    return {
        "latencies_s": scaled,
        "raw_latencies_s": raw,
        "scales": [k / r if r > 0 else 1.0 for k, r in zip(scaled, raw)],
        "reference_s": reference.values,
        "attempted": len(intervals),
        "failed": failed,
        "points": points,
        "problems": problems,
    }, done, fingerprints


def traced_cli_call(tracer):
    """cli_cold request through cli_probe.py, merging the probe's spans."""
    import subprocess

    import workloads

    def call(item):
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, PROBE, str(spawn_ns), *workloads.cli_args(item)],
            capture_output=True,
            text=True,
            timeout=workloads.CLI_TIMEOUT_S,
            env=os.environ,
        )
        if proc.returncode != 0:
            return proc.returncode, proc.stdout
        record = json.loads(proc.stdout)
        tracer.merge(record["spans"], record["counters"])
        return record["returncode"], record["stdout"]

    return call


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str):
    _, pool, rest = setup(name, seed)
    import spans
    import speed
    import workloads

    workload = workloads.WORKLOADS[name]
    stream = itertools.chain(pool, rest)
    warmup, _, _ = measure(workload, workload.request, [next(stream)])
    report = {
        "workload": {
            "why": workload.why,
            "tail_pct": workload.tail_pct,
            "point": workload.point,
            "in_process": workload.in_process,
        },
        "warmup": warmup,
    }
    if not trace:
        phase, _, _ = measure(
            workload, workload.request, stream, deadline=time.perf_counter() + seconds
        )
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        report["measured"] = phase
        report["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        return report

    untraced, blocks, fingerprints = measure(
        workload, workload.request, stream, deadline=time.perf_counter() + seconds / 2
    )
    tracer = spans.Tracer()
    call = workload.request if workload.in_process else traced_cli_call(tracer)
    reference = speed.for_workload(workload.in_process)
    with spans.installed(tracer):
        traced, _, _ = measure(
            workload, call, blocks, tracer=tracer, expected=fingerprints, reference=reference
        )
    pauses_ns = [(int(a * 1e9), int(b * 1e9)) for a, b in reference.pauses]
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
    tracer.write(path)
    report.update(
        untraced=untraced,
        traced=traced,
        per_layer=spans.per_layer(tracer, traced["scales"], pauses_ns),
        spans_file=path,
        span_count=len(tracer.spans),
    )
    return report


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup_s, _, _ = setup(name, seed)
        result = {"setup_s": setup_s}
    else:
        result = run(name, seed, float(argv[3]), argv[4] == "1", argv[5])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
