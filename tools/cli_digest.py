"""Print one sha256 over the exit code, stdout and stderr of a fixed set of
CLI runs.

Run it from a checkout, before and after a change that must not move any
CLI output; equal digests mean every run below printed the same bytes and
exited with the same code:

    python3 tools/cli_digest.py

Each argv of the corpus runs in process through ``qubus_forge.cli.main``
three times: as written, with ``--dump-config`` appended and with it
prepended.  The corpus covers every command, every coefficient mode, complex
alpha, ``--out`` files, config files with and without overriding flags, each
``ConfigError`` message, argparse's own errors and the library's rejections.
A file written through ``--out`` is hashed with the run.  Temporary paths are
replaced by a fixed token, so the digest does not depend on where they live.

Left out: successful ``verify-basis`` runs, whose SVD-based entropies depend
on the BLAS build (``tests/test_golden.py`` leaves them out for the same
reason), and |theta| above 2 pi, outside the range of XPM phases the
simulator computes to full accuracy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qubus_forge.cli import main  # noqa: E402

TOKEN = "<tmp>"

#: Config files written to the temporary directory before the runs.
CONFIG_FILES = {
    "run.cfg": "# stored run\ncommand = generate\nn = 3\nm_parties = 2\n"
               "shifts = 0,1\nbalanced = true\ntheta = 0.01\nalpha = 500\n",
    "sweep.cfg": "command = sweep\nn = 2\nalpha = 20,400\ntheta = 0.04\n"
                 "eta = 0,1\noutput = json\n",
    "no_equals.cfg": "command generate\n",
    "no_command.cfg": "n = 3\n",
    "bad_command.cfg": "command = frobnicate\nn = 3\n",
    "bad_bool.cfg": "command = generate\nn = 3\nbalanced = yes\n",
    "norm_mode.cfg": "command = generate\nn = 3\nbalanced = true\n"
                     "norm_mode = gram_exact\n",
}

GEN = ("generate", "--n", "3", "--shifts", "0,1")

#: ``{tmp}`` in an argument is replaced by the temporary directory.
CORPUS = [
    # prepare
    ("prepare", "--n", "4"),
    ("prepare", "--n", "3", "--out", "{tmp}/prep.json"),
    ("prepare", "--n", "1"),
    ("prepare", "--n", "0"),
    # generate: each coefficient mode, complex alpha, eta, --dump-state, --out
    GEN + ("--balanced",),
    ("generate", "--n", "2", "--balanced", "--dump-state"),
    ("generate", "--n", "4", "--m-parties", "3", "--balanced-phases", "2",
     "--theta", "0.02", "--eta", "0.9"),
    GEN + ("--balanced-phases", "1,2", "--eta", "0.7", "--alpha", "300"),
    ("generate", "--n", "2", "--coeffs", "0.6,0,0.8,0;0,0.6,0.8,0",
     "--alpha", "3+4j", "--dump-state"),
    GEN + ("--coeffs", "1,0,0,0,0,0;0,0,0,0,1,0"),
    GEN + ("--balanced", "--alpha=-300+100j", "--theta=-0.02", "--eta", "0.8"),
    ("generate", "--n", "2", "--balanced", "--alpha", "1", "--theta", "6"),
    GEN + ("--balanced", "--output", "json", "--out", "{tmp}/gen.json"),
    # sweep: json to stdout, csv to stdout, csv chosen by --out, json to --out
    ("sweep", "--alpha", "100,500", "--theta", "0.001,0.01", "--eta", "0.7,1"),
    ("sweep", "--alpha", "1", "--theta", "0.1", "--eta", "0,1", "--n", "2",
     "--output", "csv"),
    ("sweep", "--alpha", "1,10", "--theta", "0.01", "--eta", "0.5,1", "--n", "4",
     "--out", "{tmp}/sweep.csv"),
    ("sweep", "--alpha", "50", "--theta", "0.05", "--eta", "1", "--n", "5",
     "--out", "{tmp}/sweep.json", "--output", "json"),
    # config files
    ("--config", "{tmp}/run.cfg"),
    ("--config", "{tmp}/run.cfg", "--theta", "0.02"),
    ("--config", "{tmp}/sweep.cfg"),
    ("--config", "{tmp}/sweep.cfg", "--output", "csv"),
    ("--config",),
    ("--config", "{tmp}/missing.cfg"),
    ("--config", "{tmp}/no_equals.cfg"),
    ("--config", "{tmp}/no_command.cfg"),
    ("--config", "{tmp}/bad_command.cfg"),
    ("--config", "{tmp}/bad_bool.cfg"),
    ("--config", "{tmp}/norm_mode.cfg"),
    # ConfigError from the flags
    GEN[:3] + ("--shifts", "0,x", "--balanced"),
    ("generate", "--n", "3"),
    GEN + ("--balanced", "--coeffs", "1,0,0,0,0,0;1,0,0,0,0,0"),
    ("generate", "--n", "3", "--m-parties", "3", "--balanced-phases", "1,2"),
    GEN + ("--balanced-phases", "1,y"),
    GEN + ("--coeffs", "1,0,0,0,0;1,0,0,0,0,0"),
    GEN + ("--coeffs", "1,0,0,0,0,z;1,0,0,0,0,0"),
    GEN + ("--balanced", "--alpha", "bogus"),
    ("sweep", "--alpha", "1,q", "--theta", "0.01", "--eta", "1"),
    # argparse errors
    (),
    ("frobnicate",),
    ("generate", "--balanced"),
    ("generate", "--n", "three", "--balanced"),
    GEN + ("--balanced", "--output", "csv"),
    GEN + ("--balanced", "--frobnicate"),
    # rejected by the library: shifts, parties, coefficients, working point,
    # detector, sweep axes, verify-basis range
    ("generate", "--n", "3", "--shifts", "0,7", "--balanced"),
    ("generate", "--n", "3", "--shifts", "1,0", "--balanced"),
    ("generate", "--n", "3", "--m-parties", "1", "--balanced"),
    GEN + ("--coeffs", "1,0,0,0;1,0,0,0"),
    GEN + ("--coeffs", "1,0,1,0,0,0;1,0,0,0,0,0"),
    ("generate", "--n", "0", "--balanced"),
    ("generate", "--n", "0", "--balanced-phases", "0"),
    GEN + ("--balanced", "--alpha", "nan"),
    GEN + ("--balanced", "--theta", "inf"),
    GEN + ("--balanced", "--theta", "3.141592653589793"),
    GEN + ("--balanced", "--alpha=-250-1j", "--theta", "6.283185307179586"),
    GEN + ("--balanced", "--alpha", "1", "--theta", "1e-13"),
    GEN + ("--balanced", "--alpha", "1e4"),
    GEN + ("--balanced", "--eta", "1.5"),
    ("sweep", "--alpha", "1", "--theta", "3.141592653589793", "--eta", "1"),
    ("sweep", "--alpha", "-1", "--theta", "0.01", "--eta", "1"),
    ("sweep", "--alpha", "1", "--theta", "-0.01", "--eta", "1"),
    ("sweep", "--alpha", "1", "--theta", "0.01", "--eta", "-0.1"),
    ("sweep", "--alpha", "1e6", "--theta", "0.01", "--eta", "1"),
    ("verify-basis", "--n", "11"),
    ("verify-basis", "--n", "1"),
]


def _run(argv: list[str], tmp: str) -> bytes:
    """One CLI run rendered as bytes, with ``tmp`` replaced by ``TOKEN``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = []
    for name in sorted(os.listdir(tmp)):
        if name not in CONFIG_FILES:
            path = os.path.join(tmp, name)
            with open(path, encoding="utf-8", newline="") as fh:
                files.append((name, fh.read()))
            os.remove(path)
    record = repr((argv, code, out.getvalue(), err.getvalue(), files))
    return record.replace(tmp, TOKEN).encode("utf-8")


def runs(tmp: str):
    """Yield every run of the corpus, in a fixed order."""
    for name, text in CONFIG_FILES.items():
        Path(tmp, name).write_text(text, encoding="utf-8")
    for args in CORPUS:
        argv = [arg.replace("{tmp}", tmp) for arg in args]
        for variant in (argv, argv + ["--dump-config"], ["--dump-config"] + argv):
            yield _run(variant, tmp)


def main_digest() -> None:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for record in runs(tmp):
            digest.update(record)
            digest.update(b"\n")
            count += 1
    print(f"{digest.hexdigest()}  ({count} runs)")


if __name__ == "__main__":
    main_digest()
