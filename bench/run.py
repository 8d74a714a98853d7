"""The ramcount benchmark: closed-loop CLI workloads with one client.

    python3 bench/run.py --workload abelian-cli --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Run it from the root of a checkout; it needs nothing but `src/` and the
standard library.  Each query is a fresh `ramcount` process started the way
the `ramcount` console script starts it, because a shell user pays
interpreter start, import and every per-process cache (law tables, subgroup
lattices, element lists) on each call.  The next query starts when the
previous one has ended.

A workload is a fixed batch of queries (workloads.py), and a run is one
batch: it first times `setup_s`, then runs the batch once.  The length of
a run is set by its batch, not by `--seconds`, which is accepted so that
every workload takes the same arguments.  Every query has its workload's
time cap; a query that times out, refuses (exit 2) or answers wrongly
counts as failed and at the cap in the latency figures.  `wall_s` and
`cpu_s` sum the queries that are not known slow cases: a known slow case
spends a fixed cap or refuses at once, and would only dilute them; its
time is reported apart as `slow_wall_s`, `slow_cpu_s` and `capped_s`.
Answers are checked against workloads.py's references after the batch.

The driver and every process it starts run on one CPU, since only one
runs at a time.  On a shared 2-vCPU machine, processes left free to move
between CPUs ran up to 40 % longer in wall time than in CPU time, and
their wall times spread far more from run to run; pinned, wall time stays
within a few per cent of CPU time.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the batch runs once untraced and once under tracer.py, the two
stdouts must be byte-identical, and the last line holds the per-module
counters summed over the traced queries, the tracing overhead and the
failure mix.  The process exits 2 without a result when it cannot run the
program at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads
from workloads import Query

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# what the `ramcount` console script runs
ENTRY = "import sys\nfrom ramcount.cli import main\nsys.exit(main())"

GRACE_S = 2.0
SETUP_CAP_S = 30.0
SETUP_RUNS = 7
SETUP_QUERY = Query(("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", ""),
                    lambda r: r == {"last_jump": 0})
TAIL_BEYOND = 10

END_TO_END = {"wall_s": "s", "cpu_s": "s", "query_p50_s": "s",
              "query_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REFUSALS = ("budget", "materialise", "group_too_large")
# substrings of the library's exit-2 messages, by refusal kind; any other
# exit-2 message is bad input and counts as an error
REFUSAL_MESSAGES = {
    "budget": ("enumeration size", "candidates exceed", "pairs exceed",
               "oracle truncation"),
    "materialise": ("refusing to materialise",),
    "group_too_large": ("group order", "subgroup scan"),
}


def per_layer_units() -> dict[str, str]:
    units = {name: "count" if name.endswith(".calls") else "s"
             for name in tracer.metric_names()}
    units["trace.overhead_s"] = "s"
    units["failed_frac"] = "ratio"
    units["queries.timeout"] = "count"
    units["queries.capped_s"] = "s"
    for kind in REFUSALS:
        units[f"queries.refused_{kind}"] = "count"
    return units


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int | None      # None: stopped at the cap
    stdout: bytes
    stderr: str


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], cap: float) -> Outcome:
    """Run argv to completion or to the cap; wall, CPU and peak RSS from wait4."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=_environment())
        pidfd = os.pidfd_open(proc.pid)
        stopped = False
        try:
            if not select.select([pidfd], [], [], cap)[0]:
                stopped = True
                _signal(pidfd, signal.SIGTERM)
                if not select.select([pidfd], [], [], GRACE_S)[0]:
                    _signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024,
                   None if stopped else proc.returncode,
                   out_path.read_bytes(), err_path.read_text(errors="replace"))


def _signal(pidfd: int, signum: int) -> None:
    with contextlib.suppress(ProcessLookupError):   # it has just exited
        signal.pidfd_send_signal(pidfd, signum)


def program_argv(query: Query, trace_file: Path | None = None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-c", ENTRY, *query.argv]
    return [sys.executable, str(TRACER), str(trace_file), *query.argv]


# ---------------------------------------------------------------------------
# judging outcomes
# ---------------------------------------------------------------------------

def judge(query: Query, outcome: Outcome) -> str:
    """'ok', 'timeout', a refusal kind, 'error' (no document) or 'wrong'."""
    if outcome.returncode is None:
        return "timeout"
    if outcome.returncode == 2:
        message = outcome.stderr.lower()
        for kind, needles in REFUSAL_MESSAGES.items():
            if any(needle in message for needle in needles):
                return kind
        return "error"
    try:
        result = json.loads(outcome.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "error"
    try:
        right = query.check(result)
    except (KeyError, TypeError, IndexError):
        right = False
    return "ok" if right and outcome.returncode == 0 else "wrong"


def unexpected(query: Query, kind: str) -> bool:
    """A failure the workload does not already record as a known slow case."""
    return kind in ("wrong", "error") or (kind != "ok" and not query.slow)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

def run_batch(queries: list[Query], cap: float,
              traced: bool = False) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = []
    for i, query in enumerate(queries):
        trace_file = WORK / f"trace-{i}.json" if traced else None
        outcomes.append(run_process(program_argv(query, trace_file), cap))
    return time.perf_counter() - start, outcomes


def tail_percentile(n: int) -> int:
    """Highest percentile of n samples with at least TAIL_BEYOND beyond it."""
    return 100 if n <= TAIL_BEYOND else math.floor(100 * (n - TAIL_BEYOND) / n)


def tail(latencies: list[float]) -> float:
    """The latency at `tail_percentile`: TAIL_BEYOND samples lie above it."""
    ordered = sorted(latencies)
    return ordered[-1] if len(ordered) <= TAIL_BEYOND else ordered[-TAIL_BEYOND - 1]


def batch_figures(queries: list[Query], outcomes: list[Outcome],
                  kinds: list[str], cap: float) -> dict[str, float]:
    latencies = [o.wall if k == "ok" else cap for o, k in zip(outcomes, kinds)]
    counted = [o for q, o in zip(queries, outcomes) if not q.slow]
    return {"wall_s": sum(o.wall for o in counted),
            "cpu_s": sum(o.cpu for o in counted),
            "query_p50_s": statistics.median(latencies),
            "query_tail_s": tail(latencies)}


def slow_figures(queries: list[Query],
                 outcomes: list[Outcome]) -> dict[str, float]:
    """Time of the known slow cases, and of every query stopped at the cap."""
    slow = [o for q, o in zip(queries, outcomes) if q.slow]
    return {"slow_wall_s": sum(o.wall for o in slow),
            "slow_cpu_s": sum(o.cpu for o in slow),
            "capped_s": sum(o.wall for o in outcomes if o.returncode is None)}


def failure_mix(kinds: list[str]) -> dict[str, float]:
    mix = {"failed_frac": sum(k != "ok" for k in kinds) / len(kinds),
           "queries.timeout": kinds.count("timeout")}
    for kind in REFUSALS:
        mix[f"queries.refused_{kind}"] = kinds.count(kind)
    return mix


def measure_setup(runs: int) -> list[Outcome]:
    """A fresh process answering a query that counts nothing; the first
    run also compiles the byte code and is not timed."""
    outcomes = []
    for i in range(runs + 1):
        outcome = run_process(program_argv(SETUP_QUERY), SETUP_CAP_S)
        if judge(SETUP_QUERY, outcome) != "ok":
            raise BenchError(f"cannot run ramcount from {SRC}: exit "
                             f"{outcome.returncode}: {outcome.stderr.strip()[-300:]}")
        if i:
            outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# workload runs
# ---------------------------------------------------------------------------

def run_untraced(queries: list[Query], cap: float) -> tuple[dict, dict]:
    setup = measure_setup(SETUP_RUNS)
    _, outcomes = run_batch(queries, cap)
    kinds = [judge(q, o) for q, o in zip(queries, outcomes)]
    metrics = batch_figures(queries, outcomes, kinds, cap)
    metrics["setup_s"] = statistics.median(o.wall for o in setup)
    metrics["peak_rss_mb"] = max(
        [o.rss_mb for o, k in zip(outcomes, kinds) if k != "timeout"]
        + [o.rss_mb for o in setup])
    detail = {"queries": len(queries), "cap_s": cap,
              "tail_percentile": tail_percentile(len(queries)),
              "tail_samples": len(queries), **slow_figures(queries, outcomes),
              **failure_mix(kinds)}
    result = summarize(queries, kinds,
                       {name: (metrics[name], unit) for name, unit in END_TO_END.items()})
    return result, detail


def run_traced(queries: list[Query], cap: float) -> tuple[dict, dict]:
    measure_setup(0)
    plain_wall, plain = run_batch(queries, cap)
    traced_wall, traced = run_batch(queries, cap, traced=True)
    kinds = [judge(q, o) for q, o in zip(queries, plain)]
    differ = [" ".join(q.argv) for q, a, b in zip(queries, plain, traced)
              if a.returncode is not None and b.returncode is not None
              and (a.stdout, a.returncode) != (b.stdout, b.returncode)]
    counters = dict.fromkeys(tracer.metric_names(), 0.0)
    for i in range(len(queries)):
        path = WORK / f"trace-{i}.json"
        if path.exists():
            for name, value in json.loads(path.read_text())["counters"].items():
                if name in counters:
                    counters[name] += value
    counters["trace.overhead_s"] = traced_wall - plain_wall
    counters.update(failure_mix(kinds))
    counters["queries.capped_s"] = slow_figures(queries, plain)["capped_s"]
    units = per_layer_units()
    result = summarize(queries, kinds,
                       {name: (counters[name], unit) for name, unit in units.items()},
                       extra_wrong=len(differ))
    return result, {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
                    "stdout_differs": differ}


def summarize(queries: list[Query], kinds: list[str], metrics: dict,
              extra_wrong: int = 0) -> dict:
    """The result line: `failed` counts failures other than known slow cases."""
    return {
        "correct": "wrong" not in kinds and not extra_wrong,
        "attempted": len(kinds),
        "failed": sum(unexpected(q, k) for q, k in zip(queries, kinds)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_workload(name: str, seed: int, trace: bool):
    workload = workloads.WORKLOADS[name]
    queries = workload.build(seed)
    if trace:
        return run_traced(queries, workload.cap_s)
    return run_untraced(queries, workload.cap_s)


def _print_table(name: str, result: dict, detail: dict) -> None:
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}")
    for key, value in detail.items():
        print(f"{name}\t{key}\t{value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45,
                        help="accepted for the common interface; a run is one batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "ramcount" / "cli.py").is_file():
        print(f"error: no ramcount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))    # the series oracle is the library's own
    # one process runs at a time: keep them all on one CPU; the processes
    # started later inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    try:
        results = {}
        for name in names:
            result, detail = run_workload(name, args.seed, bool(args.trace))
            _print_table(name, result, detail)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
