"""One cold run of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--tiny] [--spans FILE] [--setup-only]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start-up, imports, loading or
generating the specs and the first call.  Prints one JSON object on stdout.
With ``--spans`` the layer wrappers are installed before anything is loaded,
the per-layer summary is added to the output and the spans are written to
FILE.  With ``--setup-only`` it stops after set-up and prints only its time.

Times are in reference seconds: how long the work would have taken with the
host at ``REFERENCE_LAP_S`` per lap.  The host this was written on runs the
same code up to 1.8x slower for seconds to minutes at a time, so a short
fixed loop, ``lap``, is timed four times a second all through the run, and
the wall time between laps is scaled by how fast the recent laps ran.  The
raw wall times go in the output too.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# lap() on 2 shared Intel Xeon vCPUs with Python 3.11.7, when the host ran
# it fastest
REFERENCE_LAP_S = 0.006
LAP_PERIOD_S = 0.25
# the speed of a stretch is taken from this many laps, the last at its end
LAPS_AVERAGED = 4


def lap() -> float:
    """Wall time of a short fixed pure-Python loop of rational, integer and
    tuple arithmetic.  It runs no hyperterm code, so its time moves only with
    how fast the host runs this kind of code at the moment."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 2000):
        acc += Fraction(i % 97, i)
        seen[(i % 61, i % 17)] = acc
        if i % 500 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    return time.perf_counter() - t0


class Speedometer:
    """Runs ``lap`` every ``LAP_PERIOD_S`` of wall time from a SIGALRM handler.
    ``clock`` reads reference seconds: wall time less the laps, each stretch
    between two laps scaled by ``REFERENCE_LAP_S`` over the mean of the last
    ``LAPS_AVERAGED`` laps."""

    def __init__(self) -> None:
        self.laps: list[float] = []
        self.spent = 0.0  # wall time spent in laps
        # (reference seconds at the end of the last lap, wall time then,
        # scale), replaced as one object so a clock read between two laps
        # sees one consistent state
        self.state = (0.0, time.perf_counter(), 1.0)
        self.tick()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, LAP_PERIOD_S, LAP_PERIOD_S)

    def tick(self) -> None:
        start = time.perf_counter()
        t = lap()
        self.laps.append(t)
        self.spent += t
        base, mark, factor = self.state
        self.state = (
            base + (start - mark) * factor,
            start + t,
            REFERENCE_LAP_S / statistics.mean(self.laps[-LAPS_AVERAGED:]),
        )

    def clock(self) -> float:
        base, mark, factor = self.state
        return base + (time.perf_counter() - mark) * factor

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    elapsed = time.monotonic() - args.spawned_at
    speed = Speedometer()
    # interpreter start-up, before the first lap, at the speed of that lap
    started = -elapsed * speed.state[2]

    import workloads  # imports hyperterm

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(speed.clock)
        tracer.install()
    cases = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workloads.termratio.check_compatibility(cases[0].spec)
    ready = speed.clock()
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": ready - started}))
        return 0

    wall_start = time.perf_counter() - speed.spent
    outcomes = [workloads.run_case(args.workload, case, speed.clock) for case in cases]
    wall_cases = time.perf_counter() - speed.spent - wall_start
    speed.stop()

    out = {
        "setup_s": ready - started,
        "solve_s": sum(o.solve_s for o in outcomes),
        "verify_s": sum(o.verify_s for o in outcomes),
        "latencies_ms": [1000 * (o.solve_s + o.verify_s) for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "digest": workloads.digest(outcomes),
        # raw wall time of the cases, spot checks included, and the laps
        "wall_cases_s": wall_cases,
        "lap_s": statistics.median(speed.laps),
        "laps": len(speed.laps),
    }
    for key in ("points", "equal", "pieces", "unreachable", "excluded_planes", "checked", "mismatches"):
        out[key] = sum(getattr(o, key) for o in outcomes)
    if tracer is not None:
        layers = tracer.summary()
        layers["structure.build_structure.pieces"] = out["pieces"]
        layers["structure.build_structure.unreachable"] = out["unreachable"]
        layers["structure.build_structure.excluded_planes"] = out["excluded_planes"]
        out["layers"] = layers
        tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
