"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import wittkit  # noqa: E402

for _mod in pkgutil.iter_modules(wittkit.__path__):
    importlib.import_module(f"wittkit.{_mod.name}")

REFS = json.loads((BENCH / "refs.json").read_text())

# one small task of every kind the workloads use
SMALL_TASKS = [
    {"name": "ep", "kind": "euler_product", "h": workloads.ARTIN, "m": 0, "digits": 12},
    {"name": "bc", "kind": "b_chi", "d": -4, "digits": 6},
    {"name": "z", "kind": "zeta", "s": 3, "digits": 30},
    {"name": "l", "kind": "l_series", "s": 2, "d": 5, "digits": 30},
    {"name": "hz", "kind": "hurwitz_zeta", "s": 3, "a": "1/4", "digits": 30},
    {"name": "wt", "kind": "witt_table", "h": {"num": [-1], "den": [1, -1, -1]},
     "N": 40, "R": 8},
    {"name": "p1", "kind": "peel_1d", "h": {"num": [1, 3], "den": [1, -2]}, "N": 60},
    {"name": "cy", "kind": "cyclotomic_check", "f": [1, 1], "J": 8, "K": 8},
    {"name": "p2", "kind": "peel_2d", "f": [0, 1, 1], "J": 8, "K": 8},
    {"name": "ib", "kind": "battery", "fn": "identity_battery",
     "kwargs": {"seeds": 3, "seed0": 5}},
    {"name": "cb", "kind": "battery", "fn": "combinatorial_battery",
     "kwargs": {"max_total": 6, "max_parts": 3}},
    {"name": "cli", "kind": "cli", "argv": ["witt", "--f",
                                            '{"order":4,"coeffs":["1","1"]}', "--r", "2"]},
]


def _child(task, traced, spans_file):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entry = "wittkit.cli" if task["kind"] == "cli" else "wittkit.suites"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), entry, json.dumps(task),
         "1" if traced else "0", "7", str(spans_file)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_remove_restores_every_binding():
    before = spans.bindings()
    installed = spans.install(spans.Tracer())
    assert wittkit.analytic.peel_1d is not before[("wittkit.analytic", "peel_1d")]
    assert wittkit.peel_1d is wittkit.analytic.peel_1d is wittkit.expansion.peel_1d
    assert wittkit.series.TruncatedSeries.__dict__["__mul__"] is not before[
        ("series.TruncatedSeries", "__mul__")]
    installed.remove()
    after = spans.bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrappers_record_nested_spans_and_counts():
    tracer = spans.Tracer(3)
    installed = spans.install(tracer)
    try:
        f = wittkit.TruncatedSeries([1, 1], 6)
        wittkit.witt_table(f, 3)
        wittkit.aperiodic_count((2, 2))
    finally:
        installed.remove()
    summary = tracer.summary()
    per_name = summary["per_name"]
    assert per_name["witt.witt_table"]["calls"] == 1
    assert per_name["series.mul"]["calls"] > 0
    assert summary["counters"]["witt.witt_table.cells"] == 3 * 7
    assert summary["counters"]["words.aperiodic_count.visited"] == 6  # 4!/(2!2!)
    assert summary["counters"]["words.aperiodic_count.results"] == 1
    names = {s[0]: s for s in tracer.spans()}
    mul = names["series.mul"]
    assert tracer.spans()[mul[3]][0] == "witt.witt_table"  # parent is the table
    assert all(s[4] == 3 for s in tracer.spans())


def test_self_time_on_a_synthetic_span_tree():
    #  root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #               -> b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]

    tracer = spans.Tracer()
    for name, p, s, e in zip("rxyx", parents, starts, ends):
        tracer.name_of.append(tracer.name_id(name))
        tracer.parents.append(p)
        tracer.starts.append(s)
        tracer.ends.append(e)
    summary = tracer.summary()
    assert summary["root_s"] == 10.0
    assert summary["per_name"]["x"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert summary["per_name"]["r"]["self_s"] == 3.0


def test_traced_task_returns_the_untraced_payload(tmp_path):
    spans_file = tmp_path / "spans.tsv"
    for task in SMALL_TASKS:
        plain = _child(task, False, spans_file)
        traced = _child(task, True, spans_file)
        assert plain["payload"] == traced["payload"], task["name"]
        assert "trace" not in plain
        assert traced["trace"]["spans"] > 0, task["name"]
        assert traced["trace"]["root_s"] <= traced["task_s"]
    lines = [line.split("\t") for line in spans_file.read_text().splitlines()]
    assert {line[0] for line in lines} == {t["name"] for t in SMALL_TASKS}
    assert all(len(line) == 7 and line[6] == "7" for line in lines)


def test_wrong_reference_is_a_failure_not_a_crash():
    task = workloads.build("constants", 1)[0]
    value = REFS["values"][task["ref"]]["value"]
    checker = workloads.Checker(REFS)
    assert checker.check(task, {"value": value[:66]}) is None
    bad = json.loads(json.dumps(REFS))
    bad["values"][task["ref"]]["value"] = "0.3739558136192022880547280543464164151116"
    message = workloads.Checker(bad).check(task, {"value": value[:66]})
    assert message and "off by" in message
    assert checker.check(task, {"value": "not a number"}) is not None
    assert checker.check(task, {}) is not None

    proc = {"payload": {"value": value[:66]}, "task_s": 1.0, "latency_s": 1.1,
            "raw_latency_s": 1.1, "speed": 1.0,
            "cpu_s": 1.0, "rss_mib": 30.0, "exit": 0, "stderr": ""}
    outcome = run.judge(workloads.Checker(bad), task, proc)
    assert outcome["failure"] and not outcome["known_defect"]


def test_known_defect_probe_is_separated_from_wrong_answers():
    probe = next(dict(t, kind="cli") for t in workloads.CLI if "known_defect" in t)
    checker = workloads.Checker(REFS)
    base = {"task_s": 0.2, "latency_s": 0.2, "raw_latency_s": 0.2, "speed": 1.0,
            "cpu_s": 0.2, "rss_mib": 20.0,
            "exit": 2, "stderr": "usage error"}
    failed = run.judge(checker, probe, dict(base, payload={"exit": 2, "out": None}))
    assert failed["failure"] and failed["known_defect"]
    wrong = run.judge(checker, probe, dict(base, exit=0,
                                           payload={"exit": 0, "out": {"value": "12"}}))
    assert wrong["failure"] and not wrong["known_defect"]


def test_workloads_are_fixed_by_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 4) == workloads.build(name, 4)
    orders = {tuple(t["name"] for t in workloads.build("cli", s)) for s in range(5)}
    assert len(orders) > 1
    for seed in range(50):
        for name in ("constants", "tables"):
            for task in workloads.build(name, seed):
                if "ref" in task:
                    assert task["ref"] in REFS["values"] or task["ref"] in REFS["exact"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)


@pytest.mark.parametrize("n, expected", [(10, (0.0, 0.0, 10)), (11, (1.0, 100 / 11, 11)),
                                          (40, (30.0, 75.0, 40))])
def test_tail_keeps_ten_samples_above(n, expected):
    assert run.tail([float(i + 1) for i in range(n)]) == pytest.approx(expected)
