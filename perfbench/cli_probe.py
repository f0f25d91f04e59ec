"""One traced CLI launch, for the traced run of the cli_cold workload.

    python perfbench/cli_probe.py SPAWN_NS CLI_ARGS...

Does what ``python -m qubus_forge.cli CLI_ARGS...`` does, and times it in
three spans: interpreter start (from SPAWN_NS, the parent's
``perf_counter_ns`` just before it started this process, to the first line
here; both read the system-wide monotonic clock), the import of
``qubus_forge.cli``, and ``cli.main`` with the in-process layers traced.
Prints one JSON object: exit code, the CLI's stdout, spans and counters.
"""

import time

_START_NS = time.perf_counter_ns()

import sys  # noqa: E402

# The package is imported before anything else the probe needs, so that the
# import span pays for the same modules a plain CLI launch loads.
_IMPORT_START_NS = time.perf_counter_ns()
import qubus_forge.cli  # noqa: E402

_IMPORT_END_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import spans  # noqa: E402


def main() -> None:
    spawn_ns = int(sys.argv[1])
    tracer = spans.Tracer()
    tracer.add_span("cli.interp_start", spawn_ns, _START_NS)
    tracer.add_span("cli.import", _IMPORT_START_NS, _IMPORT_END_NS)
    out = io.StringIO()
    with spans.installed(tracer), contextlib.redirect_stdout(out):
        code = qubus_forge.cli.main(sys.argv[2:])
    record = {
        "returncode": code,
        "stdout": out.getvalue(),
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
