import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    loader = importlib.util.spec_from_file_location("ab_generate", ROOT / "tools" / "ab_generate.py")
    tool = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tool)
    return tool


def test_ab_generate_prints_the_layer_split_of_one_small_class(capsys):
    # One round of one small class, both sides this tree: the end-to-end
    # row, then each side's cold split into the seven layers and their
    # total, and the per-layer ratios.
    tool = _tool()
    path = list(sys.path)
    src = str(ROOT / "src")
    tool.main([src, src, "--rounds", "1", "--only", "n=2, M=2", "--layers"])
    out = capsys.readouterr().out.splitlines()
    assert sys.path == path
    assert not [m for m in sys.modules if m.startswith(("qubus_forge_parent", "qubus_forge_change"))]
    assert [line.split()[0] for line in out if line.startswith("n=")] == ["n=2,"] * 4
    assert "wide block" not in "\n".join(out)
    header = next(line for line in out if line.startswith("case") and "attach" in line)
    assert header.split()[2:] == [*tool.LAYERS, "total"]
    for side in ("parent", "change", "ratio"):
        row = next(line for line in out if line.startswith("n=2, M=2") and line.split()[2] == side)
        values = [float(x) for x in row.split()[3:]]
        # the checks are a difference of two timings, which noise can
        # make negative in a short run
        assert len(values) == len(tool.LAYERS) + 1 and values[-1] > 0.0


def test_ab_generate_rejects_an_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        _tool().main(["src", "src", "--only", "n=7, M=2"])
    assert exc.value.code == 2
    assert "no case is labelled n=7, M=2" in capsys.readouterr().err
