"""Layer spans and work counters for the traced benchmark run.

The wrappers are installed on the names the callers look up.  `driver`
imports `find_point`, `bounded_search_multi` and the rest into its own
namespace, so the driver's copy of each name is the one wrapped; the
benchmark itself calls `fieldmodel`, `goldens`, `elements` and
`indexcore` functions through their modules, so those are wrapped there.

Spans are kept in memory as [name, start, end, parent, item] and written
out once, after the run.  Counters are exact work counts derived from the
arguments and results at the same boundaries; they repeat exactly for a
fixed seed, unlike the timings.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

_FLOAT_PATH_LIMIT = 2 ** 62  # thue.bounded_search_multi leaves int64 here


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_find_point(c, args, kwargs, result):
    c["conic.find_point.none" if result is None else "conic.find_point.found"] += 1


def _count_thue_reduction(c, args, kwargs, result):
    c["conic.thue_instances"] += len(result.instances)


def _count_bounded_search(c, args, kwargs, result):
    coeffs = _arg(args, kwargs, 0, "form").coeffs
    b = int(_arg(args, kwargs, 2, "bound"))
    c["thue.targets"] += len(set(_arg(args, kwargs, 1, "targets")))
    # canonical-sign pairs with |p|, |q| <= b: p in 1..b with any q, plus p = 0, q > 0
    c["thue.grid_points"] += 2 * b * b + 2 * b
    c["thue.hits"] += sum(len(s) for s in result.values())
    if sum(abs(x) for x in coeffs) * b ** 4 >= _FLOAT_PATH_LIMIT:
        c["thue.float_path_calls"] += 1


def _count_uv_pairs(c, args, kwargs, result):
    c["driver.uv_pairs"] += len(result)


def _count_box(c, args, kwargs, result):
    c["driver.box_points"] += (2 * int(_arg(args, kwargs, 1, "box")) + 1) ** 3


# span name -> (places it is looked up, counter hook)
SPANS = {
    "fieldmodel.validate_parameter": ((("fieldmodel", "validate_parameter"),), None),
    "goldens.expected_minimal": ((("goldens", "expected_minimal"),), None),
    "driver.minimal_index": ((("driver", "minimal_index"),), None),
    "driver.case1_candidates": ((("driver", "case1_candidates"),), None),
    "driver.case2_candidates": ((("driver", "case2_candidates"),), None),
    "driver.candidate_uv_pairs": ((("driver", "candidate_uv_pairs"),), _count_uv_pairs),
    "conic.find_point": ((("driver", "find_point"),), _count_find_point),
    "conic.parametrize": ((("driver", "parametrize"),), None),
    "conic.thue_reduction": ((("driver", "thue_reduction"),), _count_thue_reduction),
    "thue.bounded_search_multi": ((("driver", "bounded_search_multi"),), _count_bounded_search),
    "thue.solve_power_of_two": ((("driver", "solve_power_of_two"),), None),
    "driver.brute_force_minimal": ((("driver", "brute_force_minimal"),), _count_box),
    "elements.index_oracle": ((("driver", "index_oracle"), ("elements", "index_oracle")), None),
    "elements.triple_from_xyz": ((("driver", "triple_from_xyz"),
                                  ("elements", "triple_from_xyz")), None),
    "indexcore.index_via_forms": ((("driver", "index_via_forms"),
                                   ("indexcore", "index_via_forms")), None),
}

COUNTERS = ("conic.find_point.found", "conic.find_point.none", "conic.thue_instances",
            "thue.targets", "thue.grid_points", "thue.hits", "thue.float_path_calls",
            "driver.uv_pairs", "driver.box_points", "driver.box_rechecks")


def is_timing(metric: str) -> bool:
    """Whether a layer metric is a time in seconds rather than an exact count."""
    return metric.endswith(".s") or metric.endswith("_s")


class Tracer:
    """Wraps the layer entry points of one imported library and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.item = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, lib) -> None:
        for name, (places, hook) in SPANS.items():
            for module_name, attr in places:
                module = getattr(lib, module_name)
                original = getattr(module, attr, None)
                if original is None:  # the layer was removed or renamed
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per span name, plus counters."""
        calls = dict.fromkeys(SPANS, 0)
        total = dict.fromkeys(SPANS, 0.0)
        own = dict.fromkeys(SPANS, 0.0)
        counters = dict(self.counters)
        for name, start, end, parent, _item in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur
            if parent is not None:
                parent_name = self.spans[parent][0]
                own[parent_name] -= dur
                if name == "elements.index_oracle" and parent_name == "driver.brute_force_minimal":
                    counters["driver.box_rechecks"] += 1
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        out.update(counters)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)
