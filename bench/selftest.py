"""Self-test of the benchmark's failure accounting.

    python3 bench/selftest.py

Runs a small honest batch, then the same batch with a planted wrong
answer (a reference that is off by one) and with a planted timeout (a
query that runs for minutes, under a two-second cap), and checks that each
plant raises `failed_frac` and the contract's `failed` count, and that the
wrong answer also clears `correct`.  Then it runs one query that the
library refuses for each refusal kind, and one that it rejects as bad
input, and checks that each exit-2 message is sorted into its kind.  Exits
0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys

import reference as ref
import run
from workloads import Query

CAP_S = 2.0
REFUSAL_CAP_S = 20.0
# one exit-2 query per kind, with the library message it draws
REFUSALS = {
    "budget": ("count-abelian", "--p", "2", "--q", "4", "--group", "1,1",
               "--v", "12", "--mode", "inertial_types"),        # enumeration size
    "materialise": ("global-series", "--q", "3", "--x-max", "12",
                    "--group", "1", "--p", "3"),                # refusing to materialise
    "group_too_large": ("disc", "--p", "2", "--q", "2", "--group", "3,3,3,2",
                        "--terms", "1:1;0;0|0;0;0|0;0;0|0;0"),  # subgroup scan
    "error": ("count-abelian", "--p", "2", "--q", "2", "--group", "1",
              "--v", "70", "--mode", "homomorphisms"),          # last jump exceeds
}


def _count_d4(q: int, v: int, offset: int = 0) -> Query:
    want = ref.count_d4_le(q, v) + offset
    return Query(("count-d4", "--q", str(q), "--v", str(v)),
                 lambda r: r == {"count_le": want})


def measure(queries: list[Query], cap: float = CAP_S) -> dict:
    _, outcomes = run.run_batch(queries, cap)
    kinds = [run.judge(q, o) for q, o in zip(queries, outcomes)]
    result = run.summarize(queries, kinds, {})
    return {**run.failure_mix(kinds), "failed": result["failed"],
            "correct": result["correct"], "kinds": kinds}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    honest = [run.SETUP_QUERY, _count_d4(2, 1), _count_d4(4, 5)]
    planted_wrong = _count_d4(2, 3, offset=1)
    planted_timeout = Query(("global-series", "--q", "2", "--x-max", "12",
                             "--group", "2", "--p", "2"), lambda r: True)
    try:
        base = measure(honest)
        wrong = measure(honest + [planted_wrong])
        slow = measure(honest + [planted_timeout])
        refused = measure([Query(argv, lambda r: False) for argv in REFUSALS.values()],
                          REFUSAL_CAP_S)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    checks = {
        "honest batch has no failure":
            base["failed_frac"] == 0 and base["failed"] == 0 and base["correct"],
        "planted wrong answer raises failed_frac":
            wrong["failed_frac"] > base["failed_frac"] and wrong["kinds"][-1] == "wrong",
        "planted wrong answer counts as failed and incorrect":
            wrong["failed"] == 1 and not wrong["correct"],
        "planted timeout raises failed_frac":
            slow["failed_frac"] > base["failed_frac"] and slow["queries.timeout"] == 1,
        "planted timeout counts as failed": slow["failed"] == 1,
    }
    for want, got in zip(REFUSALS, refused["kinds"]):
        checks[f"exit-2 message sorted as {want}"] = got == want
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
