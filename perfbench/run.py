"""hyperterm benchmark: time from a term spec to a verified closed form.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each sample is one cold run of the workload in a fresh
interpreter (``worker.py``), because every CLI call starts with empty
``lru_cache``s.  Samples run one after another, with no threads, until the
next one would end after ``--seconds``.

Times are reference seconds, scaled by the speed of the host while the work
ran (see ``worker.py``); the raw wall times stay in the record line.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics of
``BENCHMARK.json``, as medians over the samples.  With ``--trace 1`` the
samples alternate between untraced and traced runs and the last line carries
the per-layer metrics of the traced ones, plus the tracing overhead; spans
are written to ``.bench_out/``.  The line before it records the host (core
count, Python version), each sample's times and median lap, and the output
digests.
The run fails (exit 1, no result line) if a sample cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("flood3d", "wedge3d", "grid2d", "decompose_batch")

MIN_SAMPLES = 2
# set-up is short and noisy, so each untraced run also starts this many
# interpreters that only set up
SETUP_SAMPLES = 5
SAMPLE_FIELDS = ("setup_s", "solve_s", "verify_s", "wall_cases_s", "lap_s")
# every sample must end well inside the 180 s a run may take
RUN_LIMIT_S = 165


def run_sample(
    workload: str, seed: int, tiny: bool, spans: Path | None, timeout: float, setup_only: bool = False
) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    cmd.insert(4, repr(time.monotonic()))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: sample exited with status {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, float]:
    # each spec's latency is its median over the samples; percentiles go
    # across the specs
    latencies = [statistics.median(runs) for runs in zip(*(s["latencies_ms"] for s in samples))]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples + setups),
        "solve_s": statistics.median(s["solve_s"] for s in samples),
        "verify_s": statistics.median(s["verify_s"] for s in samples),
        "spec_p50_ms": percentile(latencies, 50),
        "spec_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "verified_ratio": sum(s["equal"] for s in samples) / sum(s["points"] for s in samples),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    # each traced sample against the untraced one run just before it
    out["trace.overhead_s"] = statistics.median(
        t["solve_s"] + t["verify_s"] - p["solve_s"] - p["verify_s"] for p, t in zip(plain, traced)
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    start = time.perf_counter()
    setups = [] if args.trace else [
        run_sample(args.workload, args.seed, args.tiny, None, RUN_LIMIT_S, setup_only=True)
        for _ in range(SETUP_SAMPLES)
    ]
    plain: list[dict] = []
    traced: list[dict] = []
    min_plain = 1 if args.trace or args.tiny else MIN_SAMPLES
    while True:
        tracing = bool(args.trace) and len(traced) < len(plain)
        spans = OUT_DIR / f"{args.workload}-seed{args.seed}-{len(traced)}.spans.json" if tracing else None
        timeout = RUN_LIMIT_S - (time.perf_counter() - start)
        (traced if tracing else plain).append(run_sample(args.workload, args.seed, args.tiny, spans, timeout))
        # stop before a sample that would end after --seconds, estimated from
        # earlier samples of the same kind
        elapsed = time.perf_counter() - start
        next_traced = bool(args.trace) and len(traced) < len(plain)
        next_s = statistics.median(s["wall_s"] for s in (traced if next_traced and traced else plain))
        enough = len(plain) >= min_plain and len(traced) >= args.trace
        if (enough and elapsed + next_s > args.seconds) or elapsed + next_s > RUN_LIMIT_S:
            break

    samples = plain + traced
    digests = sorted({s["digest"] for s in samples})
    first = plain[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "samples": len(plain),
        "traced_samples": len(traced),
        "specs_per_sample": first["attempted"],
        "digests": digests,
        "sample_s": [[s[k] for k in SAMPLE_FIELDS] for s in plain],
        "traced_sample_s": [[s[k] for k in SAMPLE_FIELDS] for s in traced],
        "setup_only_s": [s["setup_s"] for s in setups],
    }
    for key in ("pieces", "excluded_planes", "unreachable", "checked", "equal", "mismatches"):
        info[key] = first[key]
    print(json.dumps(info, sort_keys=True))

    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
