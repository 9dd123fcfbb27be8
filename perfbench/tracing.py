"""Spans around the public functions of each layer, installed from outside
the package.

A wrapper replaces a function under its own name in every ``hyperterm``
module that holds it, so calls made through the consumer's namespace
(``structure.s_path``, ``structure.propagate``, ``oresato.check_compatibility``,
...) are recorded too.  Wrappers call the original object, so functions kept
in an ``lru_cache`` keep their cache.  Spans stay in memory, each with the id
of the span that was open when it started, until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from typing import Callable, Optional

from hyperterm import geometry, jsonio, oracle, oresato, poly, structure, termratio

# (metric prefix, home module, function name, tally).  A tally is (metric
# suffix, amount one result adds, whether the sum is reported per call).
FOUND = ("found_ratio", lambda r: int(r is not None), True)
SPANNED = [
    ("oracle.propagate", oracle, "propagate", ("reached_ratio", lambda r: int(r.ok), True)),
    ("oracle.propagate_window", oracle, "propagate_window", ("points", len, False)),
    ("geometry.s_path", geometry, "s_path", FOUND),
    ("geometry.arrangement", geometry, "arrangement", ("cells", len, False)),
    ("geometry.is_measure_zero", geometry, "is_measure_zero", None),
    ("geometry.erode", geometry, "erode", None),
    ("geometry.find_box", geometry, "find_box", None),
    ("geometry.region_sample", geometry, "region_sample", FOUND),
    ("structure.closed_form_eval", structure, "closed_form_eval", None),
    ("structure.build_structure", structure, "build_structure", None),
    ("structure.split_factorial", structure, "split_factorial", None),
    ("structure.to_pochhammer", structure, "to_pochhammer", None),
    ("oresato.decompose", oresato, "decompose", None),
    ("termratio.check_compatibility", termratio, "check_compatibility", None),
    ("poly.gcd", poly, "gcd", None),
    ("jsonio.spec_from_json", jsonio, "spec_from_json", None),
]


class Tracer:
    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent id or -1, start, end]
        self.tallies: Counter = Counter()
        self.evaluate_calls = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, tally: Optional[tuple]) -> Callable:
        spans, open_, clock, tallies = self.spans, self._open, self.clock, self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, open_[-1] if open_ else -1, clock(), None])
            open_.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[sid][3] = clock()
            if tally is not None:
                tallies[name] += tally[1](result)
            return result

        return wrapper

    def install(self) -> None:
        for name, home, attr, tally in SPANNED:
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, tally)
            for module in list(sys.modules.values()):
                if module is not None and module.__name__.startswith("hyperterm"):
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
        evaluate = poly.MultiPoly.evaluate

        # a count only: a span per polynomial evaluation would swamp the flood
        def counted(p, point):
            self.evaluate_calls += 1
            return evaluate(p, point)

        poly.MultiPoly.evaluate = counted

    def summary(self) -> dict[str, float]:
        """calls and self time per spanned function, the result tallies and
        ratios, and the evaluate count."""
        child_time: Counter = Counter()
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name, *_ in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for sid, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[sid]
        for name, _, _, tally in SPANNED:
            if tally is not None:
                suffix, _, per_call = tally
                total, calls = self.tallies[name], out[f"{name}.calls"]
                out[f"{name}.{suffix}"] = (total / calls if calls else 0.0) if per_call else total
        out["poly.MultiPoly.evaluate.calls"] = self.evaluate_calls
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s"],
                 "spans": [[i, p, n, s, e] for i, (n, p, s, e) in enumerate(self.spans)]},
                fh,
            )
