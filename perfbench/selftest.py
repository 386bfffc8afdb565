#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (under a minute once built).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * both modes print every metric BENCHMARK.json names, with its unit, and
    report no failed run;
  * two runs with one seed agree exactly on the deterministic metrics
    (ckt_height, traffic_bytes, sim_time_ms and every layer count), and
    another seed changes the inputs;
  * the traced run's layer self times plus unattributed_s sum to its wall.
It also checks that the benchmark fails, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build step)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_TIMES = ["circuit.generate_s", "assign.make_s", "msg.run_s", "shm.run_s",
               "coherence.replay_s", "route.seq_s", "check.legality_s",
               "check.consistency_s"]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    return result["metrics"]


def check_names(metrics: dict, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == expected, f"{section}: got {got}, expected {expected}"
    for name, m in metrics.items():
        assert math.isfinite(m["value"]), f"{name} = {m['value']}"


def deterministic(metrics: dict) -> dict:
    """Drops host measurements: seconds, memory, and host ns per unit of work."""
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in ("s", "MB") and "ns_per" not in name}


def check_workload(workload: str) -> None:
    e2e = [bench(workload, 1, 0) for _ in range(2)]
    for m in e2e:
        check_names(m, "end_to_end")
    assert deterministic(e2e[0]) == deterministic(e2e[1]), (e2e[0], e2e[1])
    other = bench(workload, 2, 0)
    assert deterministic(other) != deterministic(e2e[0]), "seed does not reach the inputs"

    layers = [bench(workload, 1, 1) for _ in range(2)]
    for m in layers:
        check_names(m, "per_layer")
    assert deterministic(layers[0]) == deterministic(layers[1]), (layers[0], layers[1])
    for m in layers:
        total = sum(m[name]["value"] for name in LAYER_TIMES) + m["unattributed_s"]["value"]
        wall = m["trace.wall_s"]["value"]
        assert abs(total - wall) <= 1e-9 * max(1.0, wall), (workload, total, wall)
    print(f"ok {workload}")


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the repository sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok bare directory fails")


def main() -> int:
    run.build()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_workload(workload)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
