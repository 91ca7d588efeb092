"""Smoke test of the benchmark on a tiny version of each workload.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit and that the correctness checks ran. It sets no time bounds.
"""

import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Checks per repetition: the untraced worker's, plus in a traced repetition
# the replay's and the byte comparison of the two.
PLAIN = len(run.PLAIN_CHECKS)
PAIR = PLAIN + len(run.TRACED_CHECKS) + 1


def test_catalogue_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["stream", "drift", "bulk"]


@pytest.mark.parametrize("workload", ["stream", "drift", "bulk"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace):
    result = run.run(workload, seed=5, seconds=0.1, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    catalogue = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in catalogue}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    per_rep = PAIR if trace else PLAIN
    assert result["attempted"] == run.MIN_REPS * per_rep
    assert result["correct"]
    assert result["failed"] == 0
