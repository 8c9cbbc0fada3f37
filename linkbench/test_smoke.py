"""Smoke test of the link benchmark at one frame per SNR point.

    python3 -m pytest -q linkbench/test_smoke.py

Checks that every workload runs in both modes, passes its output checks and
prints every metric BENCHMARK.json names, with its unit, both as a text line
and in the final JSON object; and that the benchmark refuses to run without
the simulator sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--frames", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    text = set(lines[:-1])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} {got['value']!r} {m['unit']}" in text


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
