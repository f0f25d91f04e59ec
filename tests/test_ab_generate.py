import importlib.util
import random
import shutil
import sys
from pathlib import Path

import pytest

import qubus_forge

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
        assert len(values) == len(tool.LAYERS) + 1 and values[-1] > 0.0


def test_ab_generate_layers_restores_every_wrapped_binding(monkeypatch):
    # each function of the layer table, in both loaded trees, is the one
    # the tree was loaded with once --layers is done
    tool = _tool()
    load, originals = tool.load, []

    def recording_load(src, side, into):
        module = load(src, side, into)
        for name in tool.LAYER_OF:
            owner, attr = name.split(".")
            namespace = getattr(module, owner)
            originals.append((namespace, attr, getattr(namespace, attr)))
        return module

    monkeypatch.setattr(tool, "load", recording_load)
    src = str(ROOT / "src")
    tool.main([src, src, "--rounds", "1", "--only", "n=2, M=2", "--layers"])
    assert len(originals) == 2 * len(tool.LAYER_OF)
    for namespace, attr, fn in originals:
        assert getattr(namespace, attr) is fn


def test_ab_generate_layers_rejects_a_tree_without_a_layer_function(tmp_path, capsys):
    # a tree from before generate's own target builder lacks
    # protocols._spec_target: the tool names it and times nothing
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "qubus_forge", tmp_path / "qubus_forge", ignore=ignore)
    with open(tmp_path / "qubus_forge" / "protocols.py", "a", encoding="utf-8") as fh:
        fh.write("\ndel _spec_target\n")
    with pytest.raises(SystemExit) as exc:
        _tool().main([str(tmp_path), str(ROOT / "src"), "--only", "n=2, M=2", "--layers"])
    assert exc.value.code == "error: the parent tree has no protocols._spec_target for --layers"
    assert capsys.readouterr().out == ""
    assert not [m for m in sys.modules if m.startswith(("qubus_forge_parent", "qubus_forge_change"))]


def test_ab_generate_times_the_request_shaped_wide_case(capsys):
    # req wide builds and generates eight seeded specs of the wide_qudit
    # mix per call: every class of that workload, shifts past (0, 1),
    # phased coefficients and detectors below eta = 1 among them
    tool = _tool()
    make = dict(tool.cases())["req wide"]
    classes = tool.wide_request_classes(random.Random(tool.WIDE_REQUEST_SEED))
    assert len(classes) == 8 and set(classes) == set(tool.WIDE_REQUEST_CLASSES)
    specs = []

    class Recording:  # builds the specs through the package, records them
        ProtocolSpec = qubus_forge.ProtocolSpec
        DetectorModel = qubus_forge.DetectorModel
        generate = specs.append

    make(Recording)()
    assert [(spec.n, spec.parties) for spec in specs] == classes
    assert any(spec.shifts[1:] != (1,) * (spec.parties - 1) for spec in specs)
    assert any(len(set(vec)) > 1 for spec in specs for vec in spec.coeffs)
    assert any(spec.detector.efficiency < 1.0 for spec in specs)
    src = str(ROOT / "src")
    tool.main([src, src, "--rounds", "1", "--only", "req wide"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("req wide")]
    assert len(rows) == 1 and len(rows[0].split()) == 2 + 6 + 4


def test_ab_generate_rejects_an_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        _tool().main(["src", "src", "--only", "n=7, M=2"])
    assert exc.value.code == 2
    assert "no case is labelled n=7, M=2" in capsys.readouterr().err
