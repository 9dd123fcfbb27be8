"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` untraced and traced, and checks that the
result line has the four keys, that every metric named in BENCHMARK.json is
emitted with its unit, that no spec failed, and that ``decompose_batch``
makes no ``geometry`` or ``oracle`` call.  It also checks that the benchmark
exits non-zero, without a result line, in a copy that holds only
BENCHMARK.json and this directory.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import OUT_DIR, WORKLOADS  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, declared: list[dict]) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names or units differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if workload == "decompose_batch" and trace:
        for name, m in result["metrics"].items():
            if name.startswith(("geometry.", "oracle.")) and name.endswith(".calls"):
                assert m["value"] == 0, f"decompose_batch called {name[:-6]}"


def check_bare_copy() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench(bare, "grid2d", 0)
        assert proc.returncode != 0, "benchmark ran without the package"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, spec["per_layer" if trace else "end_to_end"])
            print(f"ok  {workload} trace={trace}")
    check_bare_copy()
    print("ok  fails without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
