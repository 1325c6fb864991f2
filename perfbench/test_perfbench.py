"""Self-tests of the benchmark.  From the repository root::

    python3 -m pytest perfbench -q

They use the ``smoke`` workload, a few seconds of every kind of check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def bench(cwd, trace=0, workload="smoke"):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_nesting(spans, tol=1e-9):
    """Raise unless every span lies inside its parent and its self time
    plus its children's durations equals its duration."""
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start - tol or s.end > p.end + tol:
                raise AssertionError(f"span {s.name} escapes {p.name}")
            child_sum[s.parent] += s.duration
    for s, cs in zip(spans, child_sum):
        if abs(s.self_s + cs - s.duration) > tol or s.self_s < -tol:
            raise AssertionError(f"span {s.name}: self {s.self_s} + "
                                 f"children {cs} != {s.duration}")


def copy_checkout(dst, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=ignore)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    code, lines = bench(ROOT, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if trace == 0:
        assert any(line.startswith("failed_share") for line in lines)


def test_corrupted_expected_verdict_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["specs"]["twice-hypothesis"]["verdict"] = "fails"
    path.write_text(json.dumps(expected))
    code, lines = bench(tmp_path)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert any(line.startswith("MISMATCH twice-hypothesis") for line in lines)


def test_no_result_without_sources(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    code, lines = bench(tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_judge_checks_costs_admitted_counts_and_errors():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    ok = {"kind": "spec", "name": "isort-upper", "mode": "cost",
          "verdict": "holds", "cost": [0, 10]}
    assert run.judge(ok, expected) == ""
    assert run.judge({**ok, "cost": [0, 9]}, expected)
    hyp = {"kind": "spec", "name": "map-const-hypothesis", "mode": "cost",
           "verdict": "holds", "admitted": 49}
    assert run.judge(hyp, expected)
    assert run.judge({**hyp, "admitted": 50}, expected) == ""
    assert run.judge({**ok, "verdict": "error", "error": "boom"}, expected)
    law = {"kind": "law", "name": "mutant:step/one-free", "verdict": "holds"}
    assert run.judge({**law, "mode": "ext"}, expected) == ""
    assert run.judge({**law, "mode": "cost"}, expected)


def test_traced_verdicts_equal_untraced_and_spans_nest():
    checks = WORKLOADS["smoke"]
    plain, _, _ = Runner(3).run(checks)
    tracer = Tracer().install()
    try:
        traced, _, _ = Runner(3).run(checks, tracer)
    finally:
        tracer.uninstall()
    verdicts = lambda recs: [(r["label"], r["verdict"]) for r in recs]
    assert verdicts(traced) == verdicts(plain)

    check_nesting(tracer.spans)
    names = {s.name for s in tracer.spans}
    assert {"bench.check", "harness.verify", "laws.check_law",
            "semantics.outcome", "semantics.enumerate", "typecheck.elaborate",
            "gen.term", "order.decide", "order.cdf"} <= names
    # a span whose recorded child time is off no longer adds up
    spans = list(tracer.spans)
    i = next(i for i, s in enumerate(spans) if s.name == "harness.verify")
    spans[i] = dataclasses.replace(spans[i], child_s=spans[i].child_s + 1e-3)
    with pytest.raises(AssertionError):
        check_nesting(spans)


def test_uninstall_restores_the_package():
    from stepbound import harness, order, semantics

    before = (harness.verify, order.leq_outcome, harness.leq_outcome,
              semantics.Evaluator.outcome)
    Tracer().install().uninstall()
    after = (harness.verify, order.leq_outcome, harness.leq_outcome,
             semantics.Evaluator.outcome)
    assert after == before
