"""Tests of the benchmark itself: inputs, oracle, tracing and its contract.

    python -m pytest perfbench/tests -q
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import pytest

import qubus_forge
import qubus_forge.cli
import oracle
import run
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _first_items(name, seed, blocks=3):
    stream = workloads.WORKLOADS[name].blocks(seed)
    return [item for block in itertools.islice(stream, blocks) for item in block]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _first_items(name, 7) == _first_items(name, 7)
    assert _first_items(name, 7) != _first_items(name, 8)
    pool, rest = workloads.WORKLOADS[name].prebuild(7)
    assert [item for block in pool[:3] for item in block] == _first_items(name, 7)
    assert next(rest) == next(itertools.islice(
        workloads.WORKLOADS[name].blocks(7), len(pool), None))


def test_blocks_hold_every_cost_class_once_per_block():
    for block in itertools.islice(workloads.WORKLOADS["paper_point"].blocks(3), 20):
        classes = sorted((item[0], item[1]) for item in block)
        assert classes == sorted(
            [(2, 2), (2, 3), (3, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
        )
    for block in itertools.islice(workloads.WORKLOADS["sweep_grid"].blocks(3), 20):
        assert sorted(item[0] for item in block) == [3, 3, 5]


def _paper_item():
    return _first_items("paper_point", 1, blocks=1)[0]


def test_oracle_accepts_real_results_and_flags_perturbed_ones():
    item = _paper_item()
    report = workloads.run_generate(item)
    assert oracle.check_report(item, report) == []

    stage = report.per_stage[0]
    off_stage = dataclasses.replace(stage, error_prob_log=stage.error_prob_log + 1e-6)
    bad = dataclasses.replace(report, per_stage=(off_stage,) + report.per_stage[1:])
    assert oracle.check_report(item, bad)
    assert oracle.check_report(
        item, dataclasses.replace(report, success_prob=report.success_prob * (1 + 1e-6))
    )
    assert oracle.check_report(
        item, dataclasses.replace(report, fidelity_vs_target=1.0 - 1e-6)
    )
    assert oracle.check_report(item, dataclasses.replace(report, per_stage=report.per_stage[:1]))


def test_oracle_flags_perturbed_and_reordered_sweep_rows():
    item = (3, (50.0, 500.0), (0.001, 0.1), (0.5, 1.0))
    rows = workloads.run_sweep(item)
    assert oracle.check_sweep(item, rows) == []
    row = rows[3]
    shifted = dataclasses.replace(
        row, p_error_simulated_log10=row.p_error_simulated_log10 * (1 + 1e-9)
    )
    assert oracle.check_sweep(item, rows[:3] + [shifted] + rows[4:])
    assert oracle.check_sweep(item, [rows[1], rows[0]] + rows[2:])
    assert oracle.check_sweep(item, rows[:-1])


def test_oracle_flags_bad_cli_output():
    item = (500.0, 0.01)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qubus_forge.cli.main(workloads.cli_args(item))
    assert oracle.check_cli(item, code, out.getvalue()) == []
    doc = json.loads(out.getvalue())
    doc["success_prob"] = 0.12
    assert oracle.check_cli(item, 0, json.dumps(doc))
    assert oracle.check_cli(item, 3, out.getvalue())
    assert oracle.check_cli(item, 0, "not json")


def test_closed_form_matches_the_paper_qutrit_formula():
    alpha, theta = 500.0, 0.01
    literal = math.log(
        4.0 / 9.0 * math.exp(-2.0 * alpha**2 * math.sin(theta / 2.0) ** 2)
        + 2.0 / 9.0 * math.exp(-2.0 * alpha**2 * math.sin(theta) ** 2)
    )
    assert oracle.closed_form_log(3, alpha, theta, 1.0) == pytest.approx(literal, rel=1e-12)


def test_self_time_on_hand_built_span_tree():
    # root [0, 100] has children [10, 40] and [30, 60] (overlapping: their
    # union covers 50) and [90, 120] (clipped to the root: covers 10).
    # [10, 40] has one child [15, 20].
    tree = [
        ["root", 0, 100, None, 0],
        ["a", 10, 40, 0, 0],
        ["b", 30, 60, 0, 0],
        ["c", 90, 120, 0, 0],
        ["a1", 15, 20, 1, 0],
    ]
    assert spans.self_times(tree) == [40, 25, 30, 30, 5]
    # A pause inside "b" comes off b's self time only; one inside the root's
    # own time comes off the root's.
    assert spans.self_times(tree, [(50, 55), (70, 72)]) == [38, 25, 25, 30, 5]


def test_per_layer_divides_by_requests_and_scales_times():
    tracer = spans.Tracer()
    tracer.spans = [
        ["protocols.generate", 0, 4_000_000, None, 0],
        ["state.canonicalize", 1_000_000, 2_000_000, 0, 0],
        ["protocols.generate", 10_000_000, 12_000_000, None, 1],
    ]
    tracer.counters.update({
        "state.canonicalize.terms_in": 10,
        "state.canonicalize.terms_out": 4,
    })
    values = spans.per_layer(tracer, [1.0, 0.5])
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}
    assert values["protocols.generate.self_ms"] == pytest.approx((3.0 + 1.0) / 2)
    assert values["state.canonicalize.calls"] == 0.5
    assert values["state.canonicalize.self_ms"] == pytest.approx(0.5)
    assert values["state.canonicalize.kept_ratio"] == pytest.approx(0.4)
    assert values["state.canonicalize.terms_in"] == 5


def test_installed_rebinds_every_binding_and_restores_them():
    modules = [qubus_forge, qubus_forge.state, qubus_forge.heralding, qubus_forge.protocols,
               qubus_forge.elements]
    before = {m.__name__: m.__dict__.get("canonicalize") for m in modules}
    item = _paper_item()
    plain = workloads.run_generate(item)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for module in modules:
            if before[module.__name__] is not None:
                assert module.canonicalize is not before[module.__name__], module.__name__
        tracer.request = 0
        traced = workloads.run_generate(item)
    for module in modules:
        assert module.__dict__.get("canonicalize") is before[module.__name__]
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    names = {span[0] for span in tracer.spans}
    assert {"protocols.generate", "protocols.entangle_stage", "heralding.herald_vacuum",
            "state.canonicalize", "elements.apply_xpm", "protocols.target_state"} <= names
    by_index = tracer.spans
    for name, _start, _end, parent, request in by_index:
        assert request == 0
        if name != "protocols.generate":
            assert parent is not None
    assert tracer.counters["heralding.herald_vacuum.clusters"] > 0


def test_reference_scales_timings_and_leaves_out_pauses():
    ref = speed.Reference(speed.kernel_s, nominal_s=1.0, interval_s=0.0, timer=False)
    ref.times, ref.values, ref.pauses = [0.0, 5.0, 10.0], [1.0, 1.0, 2.0], [(4.5, 5.5)]
    assert ref.at(7.5) == 1.5
    assert ref.at(20.0) == 2.0
    assert ref.paused(5.0, 6.0) == 0.5
    assert ref.paused(0.0, 10.0) == 1.0
    # Factor nominal/reference is 1 up to t = 5, then falls linearly to 0.5;
    # its mean over [0, 10] is (5 * 1 + 5 * 0.75) / 10.
    assert ref.scaled(0.0, 10.0) == pytest.approx(9.0 * 0.875)
    assert ref.scaled(1.0, 2.0) == pytest.approx(1.0)
    assert speed.for_workload(in_process=True).timer
    assert not speed.for_workload(in_process=False).timer


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank(values, 95.0) == 95
    assert run.nearest_rank([3.0], 75.0) == 3.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for entry, w in zip(spec["workloads"], workloads.WORKLOADS.values()):
        assert entry["why"] == w.why
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER
    )
