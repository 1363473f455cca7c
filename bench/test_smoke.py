"""Smoke test of the benchmark itself, on the few-second instance lists.

    python3 -m pytest -q bench/test_smoke.py

Checks that every run emits exactly the metrics BENCHMARK.json names, that
every output passes its checks, and that the digest of the outputs is the
same with tracing on or off and under another seed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--tiny", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[-1] for l in lines if l.startswith("workload "))
    return json.loads(lines[-1]), digest


# oracle is not in BENCHMARK.json but stays runnable, and its golden
# outputs checked, by hand.
@pytest.mark.parametrize("workload", ["thm-c", "oracle", "level"])
def test_metrics_and_digest(workload):
    plain, digest = _run(workload, 0, 0)
    traced, traced_digest = _run(workload, 0, 1)
    shuffled, shuffled_digest = _run(workload, 3, 0)

    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (plain, traced, shuffled):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
    assert digest == traced_digest == shuffled_digest


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    (tmp_path / "bench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".json"):
            (tmp_path / "bench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
