"""Smoke test of the benchmark: every workload at minimum length.

    python3 perfbench/smoke_test.py

Runs each workload for one second untraced and traced and asserts that
the run is correct and that every metric BENCHMARK.json names is
present, finite and in its declared unit. Same-seed reruns must repeat
``train_loss_final`` and the greedy-decode counts exactly, and a
directory holding only the benchmark (no ``src/``) must make it exit
non-zero without a result line. It also runs under pytest.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int, seed: int = 1, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True, out
    assert out["failed"] == 0 and out["attempted"] >= 1, out
    return out["metrics"]


def assert_metrics(metrics: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(want), set(metrics) ^ set(want)
    for name, unit in want.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_every_workload_reports_every_metric():
    s = spec()
    for wl in s["workloads"]:
        assert_metrics(result(bench(wl["name"], 0)), s["end_to_end"])
        assert_metrics(result(bench(wl["name"], 1)), s["per_layer"])


def test_same_seed_repeats_loss_and_greedy_counts():
    first = result(bench("stories", 0, seed=3))
    second = result(bench("stories", 0, seed=3))
    assert (first["train_loss_final"]["value"]
            == second["train_loss_final"]["value"])
    counts = ("reconstructor.greedy_steps_per_doc",
              "reconstructor.greedy_decoder_rows_per_doc")
    a = result(bench("long-docs", 1, seed=3))
    b = result(bench("long-docs", 1, seed=3))
    for name in counts:
        assert a[name]["value"] == b[name]["value"], name


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(SPEC, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("stories", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_every_workload_reports_every_metric,
                 test_same_seed_repeats_loss_and_greedy_counts,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
