"""Self-tests of the benchmark: seeded inputs, repeatable counts, no effect
of tracing on results, and refusal to run without the sources.

    python3 -m pytest perfbench -q      # about two minutes

Each check starts real worker processes, exactly as a benchmark run does.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import DETERMINISTIC_COUNTS, combine  # noqa: E402


@pytest.mark.parametrize("part", workloads.PARTS)
def test_inputs_are_made_from_the_seed(part):
    first = workloads.make_inputs(part, 5)
    assert first == workloads.make_inputs(part, 5)
    assert json.loads(json.dumps(first)) == first
    assert first["seed"] == 5


@pytest.mark.parametrize("part", workloads.PARTS)
def test_traced_counts_repeat_and_tracing_changes_no_result(part):
    workdir = run.prepare(part, 11)
    traced = [run.run_worker(workdir, "solve", True) for _ in range(2)]
    plain = run.run_worker(workdir, "solve", False)
    for key in DETERMINISTIC_COUNTS:
        assert traced[0]["layers"][key] == traced[1]["layers"][key], key
    summaries = [[op["summary"] for op in rec["ops"]] for rec in traced + [plain]]
    assert summaries[0] == summaries[1] == summaries[2]
    assert all(op["correct"] for op in plain["ops"])
    assert set(combine([traced[0]["layers"]])) | {"trace.solve_s", "trace.overhead_ratio",
                                                  "trace.spans", "host.probe_s"} \
        == set(run.declared_metrics(True))
    assert 0 < plain["solve_scaled_s"] and 0 < plain["setup_scaled_s"]


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
