"""Byte-for-byte CLI output pins.

Each file under ``tests/data/`` is the exact stdout of one CLI run.  A change
that alters any digit of these outputs fails here; regenerate a file only
when an output change is intended, and say so in CHANGES.md.

``verify-basis`` is not pinned: its SVD-based entropies depend on the BLAS
build.
"""

from pathlib import Path

import pytest

from qubus_forge.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN_RUNS = [
    ("generate_n3_dump_state.json",
     ["generate", "--n", "3", "--shifts", "0,1", "--balanced", "--dump-state"]),
    ("generate_n3_three_party_eta07.json",
     ["generate", "--n", "3", "--m-parties", "3", "--shifts", "0,1,2",
      "--balanced-phases", "1,0,2", "--eta", "0.7"]),
    ("sweep_n3.csv",
     ["sweep", "--alpha", "100,500", "--theta", "0.001,0.01",
      "--eta", "0.7,1.0", "--n", "3", "--output", "csv"]),
    ("sweep_n3.json",
     ["sweep", "--alpha", "100,500", "--theta", "0.001,0.01",
      "--eta", "0.7,1.0", "--n", "3", "--output", "json"]),
    ("prepare_n5.json", ["prepare", "--n", "5"]),
    # n > 3 herald: 11 branch classes per stage.
    ("generate_n6_three_party_dump_state.json",
     ["generate", "--n", "6", "--m-parties", "3", "--shifts", "0,2,5",
      "--balanced-phases", "1,4,0", "--eta", "0.8", "--theta", "0.02",
      "--alpha", "300", "--dump-state"]),
    # three etas per (alpha, theta) pair, eta 0 among them
    ("sweep_n5_three_etas.json",
     ["sweep", "--alpha", "50,300", "--theta", "0.003,0.05",
      "--eta", "0,0.6,1", "--n", "5", "--output", "json"]),
    # n = 2 has no offset d = 2: mean_k2 is empty
    ("sweep_n2.csv",
     ["sweep", "--alpha", "20,400", "--theta", "0.002,0.04",
      "--eta", "0,1", "--n", "2", "--output", "csv"]),
    # the wide path: 576 terms before the second herald
    ("generate_n24_dump_state.json",
     ["generate", "--n", "24", "--shifts", "0,5", "--balanced-phases", "3,7",
      "--eta", "0.9", "--dump-state"]),
]


@pytest.mark.parametrize(
    "filename, argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS]
)
def test_cli_output_matches_golden_file(filename, argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (DATA / filename).read_bytes()
