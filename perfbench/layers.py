"""The per-layer metrics of a --trace 1 run, computed from its traced rounds
(spans and counts) and its untraced rounds (the workload-specific figures
and the tracing overhead).

Counts come from the first traced round; every traced round of a run has the
same inputs, so its counts are the same.  Times are medians over the traced
rounds.  A metric of a layer that a workload does not reach is 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

BATTERIES = (
    "identity_battery", "positivity_battery", "combinatorial_battery",
    "expansion_uniqueness_battery", "monotonicity_battery",
    "expansion_identity_battery", "closed_form_battery",
)

# span name -> the span statistics reported for it
SPAN_STATS: Dict[str, Tuple[str, ...]] = {
    "arith.bernoulli": ("calls", "self_s"),
    "arith.primes_up_to": ("self_s",),
    "arith.moebius": ("calls",),
    "arith.divisors": ("calls",),
    "series.mul": ("calls", "self_s"),
    "series.pow": ("calls",),
    "series.recip": ("self_s",),
    "series.expand": ("self_s",),
    "series.inflate": ("calls",),
    "necklace.necklace_count": ("calls", "self_s"),
    "necklace.necklace_poly": ("calls",),
    "words.lyndon_census": ("self_s",),
    "words.aperiodic_count": ("calls", "self_s"),
    "words.lyndon_words": ("self_s",),
    "witt.witt_table": ("calls", "self_s"),
    "witt.witt_transform": ("calls", "self_s"),
    "witt.c_transform": ("self_s",),
    "witt.verify_identity": ("self_s",),
    "witt.monotonicity_scan": ("self_s",),
    "expansion.peel_1d": ("calls", "self_s"),
    "expansion.peel_2d": ("self_s",),
    "expansion.cyclotomic_check": ("self_s",),
    "expansion.reconstruct_1d": ("self_s",),
    "characters.kronecker": ("calls",),
    "analytic.euler_product": ("self_s",),
    "analytic.zeta": ("self_s",),
    "analytic.l_series": ("self_s",),
    "analytic.hurwitz_zeta": ("self_s",),
    "analytic.b_chi": ("self_s",),
    "analytic.euler_product_direct": ("self_s",),
    **{f"suites.{b}": ("self_s",) for b in BATTERIES},
    "cli.main": ("self_s",),
}

# counters recorded by spans.py at the layer boundaries: name -> unit
COUNTS = {
    "series.mul.coeff_products": "count",
    "series.mul.max_bits": "bit",
    "words.aperiodic_count.visited": "count",
    "witt.witt_table.cells": "count",
    "expansion.peel_1d.order_sum": "count",
    "expansion.peel_2d.cells": "count",
    "analytic.euler_product.cutoff": "count",
    "analytic.euler_product.working_digits": "digit",
    **{f"suites.{b}.checks": "count" for b in BATTERIES},
}

# metric -> (unit, better); the order is the order of BENCHMARK.json
METRICS: Dict[str, Tuple[str, str]] = {}
for _span, _stats in SPAN_STATS.items():
    for _stat in _stats:
        METRICS[f"{_span}.{_stat}"] = ("count" if _stat == "calls" else "s", "lower")
for _name, _unit in COUNTS.items():
    METRICS[_name] = (_unit, "higher" if _name.endswith(".checks") else "lower")
METRICS.update({
    "words.aperiodic_count.yield": ("1", "higher"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "trace.root_coverage": ("1", "higher"),
    "fail_ratio": ("1", "lower"),
    "checks_per_s": ("1/s", "higher"),
    "cli_p50_s": ("s", "lower"),
    "cli_tail_s": ("s", "lower"),
})


def merge_round(round_: dict) -> dict:
    """Span statistics and counters of one traced round, over its tasks."""
    per_name: Dict[str, dict] = {}
    counters: Dict[str, float] = {}
    root_s = task_s = 0.0
    for task in round_["tasks"]:
        trace = task.get("trace")
        if trace is None:
            continue
        root_s += trace["root_s"] * task["speed"]
        task_s += task["task_s"]
        for name, agg in trace["per_name"].items():
            into = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += agg["calls"]
            into["self_s"] += agg["self_s"] * task["speed"]
        for key, value in trace["counters"].items():
            if key.endswith(".max_bits"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"per_name": per_name, "counters": counters, "root_s": root_s,
            "task_s": task_s, "wall_s": round_["wall_s"]}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(workload: str, plain: List[dict], traced: List[dict],
              extras: dict) -> Dict[str, Tuple[float, str]]:
    merged = [merge_round(r) for r in traced]
    first = merged[0]
    values: Dict[str, float] = {}
    for span, stats in SPAN_STATS.items():
        if "calls" in stats:
            values[f"{span}.calls"] = first["per_name"].get(span, {}).get("calls", 0)
        if "self_s" in stats:
            values[f"{span}.self_s"] = _median(
                [m["per_name"].get(span, {}).get("self_s", 0.0) for m in merged])
    for name in COUNTS:
        values[name] = first["counters"].get(name, 0)
    visited = first["counters"].get("words.aperiodic_count.visited", 0)
    found = first["counters"].get("words.aperiodic_count.results", 0)
    values["words.aperiodic_count.yield"] = found / visited if visited else 0.0
    values["cli.import_s"] = _median(
        [t["import_s"] for r in traced for t in r["tasks"]]) if workload == "cli" else 0.0
    untraced_wall = _median([r["wall_s"] for r in plain])
    values["trace.overhead_ratio"] = _median([m["wall_s"] for m in merged]) / untraced_wall
    values["trace.root_coverage"] = (sum(m["root_s"] for m in merged)
                                     / sum(m["task_s"] for m in merged))
    for key in ("fail_ratio", "checks_per_s", "cli_p50_s", "cli_tail_s"):
        values[key] = extras[key]
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}


def counts_agree(traced: List[dict]) -> bool:
    """True when every traced round of the run made the same counts."""
    merged = [merge_round(r) for r in traced]
    keys = [({n: a["calls"] for n, a in m["per_name"].items()}, m["counters"])
            for m in merged]
    return all(k == keys[0] for k in keys)
