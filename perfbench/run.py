"""wittkit's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives a closed loop: each task
runs in a fresh interpreter, the next one starts only after the previous one
has exited, and only one child process exists at a time.  Caches start cold
in every task, as they do for every CLI call.  Rounds of the workload's fixed
task list repeat until S seconds have passed (at least one round).  Every
payload is checked after its process has exited, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics.  The last line of stdout is
one JSON object; the lines before it are a readable summary.  The exit code
is 1 when a payload is wrong and 2 when the checkout has no wittkit sources.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # the whole run must end within 180 s
OVERRUN = 1.15  # a run ends by OVERRUN * --seconds unless its first rounds take longer
CLI_PROBES = 5  # setup probes per untraced cli round
# The machine's speed drifts by 30-50% over tens of seconds when other
# tenants load the host, and CPU time drifts with it.  Every child process
# is therefore bracketed by a calibration loop, and its times are converted
# to seconds at the reference speed: raw * REFERENCE_CAL_S / calibration.
# REFERENCE_CAL_S is the loop's uncontended time on the 2-core VM where the
# benchmark was defined; the raw figures are kept in the run record.
REFERENCE_CAL_S = 0.0066
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def calibrate() -> float:
    """Fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    """Spawns child processes one at a time and measures each."""

    def __init__(self, root: Path, out: Path, spans_file: Path, deadline: float):
        self.root = root
        self.out = out
        self.spans_file = spans_file
        self.deadline = deadline
        self.env = dict(os.environ)
        self.threads_env = self.env.pop("WITTKIT_THREADS", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.last_cal: Optional[float] = None

    def spawn(self, argv: List[str]) -> dict:
        before = self.last_cal if self.last_cal is not None else calibrate()
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("the run's time limit was reached")
        with tempfile.TemporaryFile(dir=self.out) as fo, \
                tempfile.TemporaryFile(dir=self.out) as fe:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            exited = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            stdout = fo.read().decode(errors="replace")
            stderr = fe.read().decode(errors="replace")
        self.last_cal = calibrate()
        speed = 2 * REFERENCE_CAL_S / (before + self.last_cal)
        return {
            "spawned": spawned,
            "speed": speed,
            "raw_latency_s": exited - spawned,
            "latency_s": (exited - spawned) * speed,
            "exit": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
            "cpu_s": (usage.ru_utime + usage.ru_stime) * speed,
            "rss_mib": usage.ru_maxrss / 1024.0,
        }

    def child(self, entry: str, task: dict, traced: bool, round_id: int) -> dict:
        proc = self.spawn([sys.executable, str(BENCH / "child.py"), entry,
                           json.dumps(task), "1" if traced else "0", str(round_id),
                           str(self.spans_file)])
        lines = proc["stdout"].strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else {}
        except ValueError:
            record = {}
        proc["record"] = record
        if "imported" in record:
            proc["setup_s"] = (record["imported"] - proc["spawned"]) * proc["speed"]
        return proc


def run_round(runner: Runner, checker: workloads.Checker, workload: str,
              tasks: List[dict], traced: bool, round_id: int) -> dict:
    entry = workloads.ENTRY[workload]
    done = []
    setups = []
    for i, task in enumerate(tasks):
        if workload == "cli" and not traced:
            if i % (len(tasks) // CLI_PROBES) == 0 and len(setups) < CLI_PROBES:
                probe = runner.child(entry, {"kind": "probe"}, False, round_id)
                if "setup_s" not in probe:
                    raise RuntimeError("setup probe failed: " + probe["stderr"][-500:])
                setups.append(probe["setup_s"])
            proc = runner.spawn([sys.executable, "-m", "wittkit.cli", *task["argv"]])
            proc["task_s"] = proc["latency_s"]
            proc["payload"] = workloads.cli_payload(proc["exit"], proc["stdout"])
        else:
            proc = runner.child(entry, task, traced, round_id)
            record = proc["record"]
            proc["task_s"] = record["task_s"] * proc["speed"] if "task_s" in record \
                else proc["latency_s"]
            proc["payload"] = record.get("payload")
            if "setup_s" in proc:
                setups.append(proc["setup_s"])
        done.append(judge(checker, task, proc))
    return {
        "round": round_id,
        "traced": traced,
        "tasks": done,
        "setups": setups,
        # a CLI user waits from spawn to exit; a library task is timed
        # inside its process, after the import
        "wall_s": sum(t["latency_s" if workload == "cli" else "task_s"] for t in done),
        "cpu_s": sum(t["cpu_s"] for t in done),
        "peak_rss_mib": max(t["rss_mib"] for t in done),
        "speed": median([t["speed"] for t in done]),
    }


def judge(checker: workloads.Checker, task: dict, proc: dict) -> dict:
    """Outcome of one task: its measurements and what, if anything, failed."""
    failure: Optional[str] = None
    payload = proc.get("payload")
    if payload is None:
        error = proc.get("record", {}).get("error") or proc["stderr"]
        failure = f"exit {proc['exit']}: {error.strip()[-400:]}"
    else:
        failure = checker.check(task, payload)
    known = failure is not None and "known_defect" in task and payload is not None \
        and payload.get("exit", 0) != 0
    out = {
        "name": task["name"],
        "task_s": proc["task_s"],
        "latency_s": proc["latency_s"],
        "raw_latency_s": proc["raw_latency_s"],
        "speed": proc["speed"],
        "cpu_s": proc["cpu_s"],
        "rss_mib": proc["rss_mib"],
        "failure": failure,
        "known_defect": known,
    }
    if "setup_s" in proc:
        out["setup_s"] = proc["setup_s"]
    if payload is not None and "checks" in payload:
        out["checks"] = payload["checks"]
    record = proc.get("record", {})
    if "trace" in record:
        out["trace"] = record["trace"]
        out["import_s"] = record["import_s"]
    return out


def environment(root: Path, runner: Runner) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unavailable (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "wittkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "WITTKIT_THREADS": "unset" if runner.threads_env is None
        else f"unset for the children (was {runner.threads_env!r})",
    }


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]):
    """The highest percentile with at least 10 samples above it, as
    (value, percentile, sample count); (0, 0, n) with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return 0.0, 0.0, n
    ordered = sorted(values)
    k = n - 11  # ordered[k] has exactly 10 samples after it
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(plain: List[dict]) -> Dict[str, float]:
    return {
        "setup_s": median([s for r in plain for s in r["setups"]]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mib"] for r in plain]),
    }


def extras(workload: str, plain: List[dict]) -> dict:
    """Workload-specific end-to-end figures: failure share, battery
    throughput, CLI latency percentiles."""
    outcomes = [t for r in plain for t in r["tasks"]]
    failed = sum(1 for t in outcomes if t["failure"])
    out = {"fail_ratio": failed / len(outcomes), "fail_count": failed,
           "attempt_count": len(outcomes), "checks_per_s": 0.0,
           "cli_p50_s": 0.0, "cli_tail_s": 0.0, "cli_tail_pct": 0.0, "cli_n": 0}
    if workload == "batteries":
        checks = [sum(t.get("checks", 0) for t in r["tasks"]) / r["wall_s"] for r in plain]
        out["checks_per_s"] = median(checks)
    if workload == "cli":
        lat = [t["latency_s"] for t in outcomes]
        out["cli_p50_s"] = median(lat)
        out["cli_tail_s"], out["cli_tail_pct"], out["cli_n"] = tail(lat)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    begun = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "wittkit" / "__init__.py").is_file():
        print(f"no wittkit sources under {root / 'src'}; run from the root of a "
              "wittkit checkout", file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    # holds the spans of the workload's last traced run
    spans_file = out / f"spans-{args.workload}.tsv"
    spans_file.write_text("")
    runner = Runner(root, out, spans_file, begun + DEADLINE_S)
    env = environment(root, runner)
    refs = json.loads((BENCH / "refs.json").read_text())
    checker = workloads.Checker(refs)
    tasks = workloads.build(args.workload, args.seed)

    # Compile bytecode first so that setup_s measures import, not compilation;
    # one untimed import then warms the file cache.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/wittkit", str(BENCH)],
                   cwd=root, check=True, env=runner.env)
    warm = runner.child(workloads.ENTRY[args.workload], {"kind": "probe"}, False, 0)
    if warm["exit"] != 0 or "setup_s" not in warm:
        print("wittkit could not be imported:\n" + warm["stderr"][-2000:], file=sys.stderr)
        return 2
    env["int_max_str_digits"] = warm["record"]["int_max_str_digits"]

    print(f"wittkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("tasks: " + ", ".join(
        t["name"] + ("" if "d" not in t else f"(d={t['d']})") for t in tasks))
    rounds: List[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        elapsed = time.perf_counter() - start
        # stop at --seconds, and do not start a round that would likely run
        # past OVERRUN * --seconds (after the minimum number of rounds)
        if rounds and (args.trace == 0 or len(rounds) >= 2) and (
                elapsed >= args.seconds or elapsed + longest > OVERRUN * args.seconds):
            break
        r = run_round(runner, checker, args.workload, tasks, traced, len(rounds) + 1)
        longest = max(longest, time.perf_counter() - start - elapsed)
        rounds.append(r)
        failed = [t for t in r["tasks"] if t["failure"]]
        print(f"round {r['round']} ({'traced' if traced else 'untraced'}): "
              f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"peak rss {r['peak_rss_mib']:.1f} MiB, speed factor {r['speed']:.3f}, "
              f"{len(r['tasks'])} tasks, {len(failed)} failed")
        for t in failed:
            tag = "known defect" if t["known_defect"] else "FAILED"
            print(f"  {tag}: {t['name']}: {t['failure']}")
    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]

    e2e = end_to_end(plain)
    more = extras(args.workload, plain)
    print(f"setup_s      {e2e['setup_s']:.4f} s    median of "
          f"{sum(len(r['setups']) for r in plain)} process starts")
    print(f"wall_s       {e2e['wall_s']:.4f} s    median of {len(plain)} rounds")
    print(f"cpu_s        {e2e['cpu_s']:.4f} s    median of {len(plain)} rounds")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.2f} MiB  median of {len(plain)} rounds")
    print(f"fail_ratio   {more['fail_ratio']:.4f} 1    "
          f"{more['fail_count']}/{more['attempt_count']} tasks")
    if args.workload == "batteries":
        print(f"checks_per_s {more['checks_per_s']:.1f} 1/s")
    if args.workload == "cli":
        print(f"cli_p50_s    {more['cli_p50_s']:.4f} s    n={more['cli_n']}")
        print(f"cli_tail_s   {more['cli_tail_s']:.4f} s    p{more['cli_tail_pct']:.1f}, "
              f"n={more['cli_n']}")

    if args.trace:
        metrics = layers.per_layer(args.workload, plain, traced_rounds, more)
        if not layers.counts_agree(traced_rounds):
            print("warning: traced rounds made different counts")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:.6g} {unit}")
    else:
        metrics = {k: (v, UNITS[k]) for k, v in e2e.items()}

    outcomes = [t for r in rounds for t in r["tasks"]]
    regular = [t for t in outcomes if not t["known_defect"]]
    wrong = [t for t in regular if t["failure"]]
    result = {
        "correct": not wrong,
        "attempted": len(regular),
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), "env": env, "tasks": tasks, "rounds": rounds,
              "end_to_end": e2e, "extras": more, "result": result}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
