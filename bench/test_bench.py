"""Self-tests for the benchmark.

    python3 -m pytest -q bench

Tiny runs of every workload, the verdict checks, the tracer's restore and
count guarantees, the committed deterministic counts and the
BENCHMARK.json contract.
"""
from __future__ import annotations

import importlib
import json
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import counts  # noqa: E402
from epiplan import pcp  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def flip(op: workloads.Op) -> workloads.Op:
    """The op with a wrong known answer."""
    if op.kind == "lemma":
        return replace(op, expected=not op.expected)
    wrong = {"PlanFound": "BoundReached", "BoundReached": "PlanFound", "NoPlanExhausted": "PlanFound"}
    return replace(op, expected=wrong[op.expected])


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOAD_TABLE))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert list(last["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for metric, entry in last["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], float)
    if trace == "0":
        assert all(entry["value"] > 0 for entry in last["metrics"].values())
        assert "failed_ops: 0 of" in proc.stdout
    else:
        assert "deterministic counts identical" in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOAD_TABLE))
def test_flipped_answer_counts_as_failed(name):
    workload = workloads.WORKLOAD_TABLE[name]
    ops = workload.make_ops(5)[:4]
    results = [workload.run_op(op) for op in ops]
    assert all(run.check(workload, op, r) for op, r in zip(ops, results))
    ops[2] = flip(ops[2])
    assert [run.check(workload, op, r) for op, r in zip(ops, results)] == [True, True, False, True]


def test_multi_block_ops_play_both_blocks():
    workload = workloads.WORKLOAD_TABLE["pcp-search"]
    ops = [op for op in workloads.pcp_ops(4, rounds=3) if op.kind == "solvable-multi"]
    assert len(ops) == 3
    for op in ops:
        result = workload.run_op(op)
        assert run.check(workload, op, result)
        assert len(result.match) == 2 and len(set(result.match)) == 2


@pytest.mark.parametrize("name", list(workloads.WORKLOAD_TABLE))
def test_pool_hand_over_keeps_ops(name):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "4", "--setup-only"]
    pool = run.load_pool(cmd)
    made = workloads.WORKLOAD_TABLE[name].make_ops(4)
    assert pool == made
    if name == "sat-s5":
        assert [op.data.formula for op in pool] == [op.data.formula for op in made]


def test_raising_op_counts_as_failed():
    workload = workloads.WORKLOAD_TABLE["lemma-check"]
    op = workload.make_ops(5)[0]
    assert not run.check(workload, op, RuntimeError("boom"))
    assert workloads.counts(RuntimeError("boom")) == ("RuntimeError",)


def test_host_scaling_keeps_counts_and_scales_times():
    ref = run.REFERENCE_KERNEL_S
    clock = run.HostClock()
    clock.points = [ref, 2 * ref, 2 * ref]
    record = run.Record(0, 0.3, True, ("PlanFound", 7, 2), 7, 0.24)
    records, setup = run.at_reference([(0, record), (1, record)], [(1, 0.1)], clock)
    assert [r.seconds for r in records] == pytest.approx([0.2, 0.15])
    assert [r.work_seconds for r in records] == pytest.approx([0.16, 0.12])
    assert all(r.counts == record.counts and r.work == record.work for r in records)
    assert setup == pytest.approx([0.05])
    assert run.reference_kernel() == run.reference_kernel()


def test_sat_oracle_matches_known_formulas():
    assert workloads.models(2, [((0, True),), ((1, False),)]) == 1 << 0b01
    assert workloads.models(1, [((0, True),), ((0, False),)]) == 0
    # clause b is falsified by the assignment 7 - b alone; all eight rule out every one
    every = [tuple((v, bool(bits >> v & 1)) for v in range(3)) for bits in range(8)]
    assert workloads.models(3, every) == 0
    assert workloads.models(3, every[1:]) == 1 << 0b111
    assert workloads.models(3, every[:-1]) == 1 << 0b000
    # the shortest plan makes as few variables false as any model does
    assert workloads.plan_depth(2, [((0, True),), ((1, False),)]) == 1
    assert workloads.plan_depth(1, [((0, True),), ((0, False),)]) is None
    assert workloads.plan_depth(3, every[1:]) == 0
    assert workloads.plan_depth(3, every[:-1]) == 3


def test_length_argument_agrees_with_match_oracle():
    rng = random.Random(0)
    decided = 0
    for _ in range(600):
        inst = workloads._draw_instance(rng, rng.randint(1, 3))
        if workloads.no_match_by_length(inst):
            decided += 1
            assert pcp.brute_force_match(inst, 8) is None, inst.blocks
    assert decided > 50


def test_tracer_restores_attributes_and_keeps_counts():
    targets = [(importlib.import_module(m), attr) for m, attr, _ in tracer.TARGETS]
    originals = [getattr(module, attr) for module, attr in targets]
    workload = workloads.WORKLOAD_TABLE["pcp-search"]
    ops = workload.make_ops(2)[:6]
    plain = [workloads.counts(workload.run_op(op)) for op in ops]
    t = tracer.Tracer()
    with t.installed():
        assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
        traced = [workloads.counts(workload.run_op(op)) for op in ops]
    assert [getattr(module, attr) for module, attr in targets] == originals
    assert traced == plain
    assert len(t) > 0
    metrics = tracer.layer_metrics(t, {})
    assert metrics["action.product_update_calls"][0] > 0


def test_committed_counts_match_program():
    assert counts.render(counts.deterministic_counts()) == counts.COUNTS_FILE.read_text()


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(list(workloads.WORKLOAD_TABLE))
    assert END_TO_END == ["ops_per_s", "op_ms_p50", "op_ms_tail", "nodes_per_s", "peak_rss_mb", "setup_s"]
    assert [(name, unit) for name, unit in tracer.metric_names()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert len(SPEC["per_layer"]) <= 128
    names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sat-s5", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
