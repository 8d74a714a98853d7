"""Regenerate `tests/golden/queries.json`, the same-bytes corpus.

    python tests/write_queries_golden.py

The corpus holds, for each distinct argv, the exit status, stdout and
stderr of `ramcount.cli.main` run in process.  Its argvs are every query of
the abelian-cli and dihedral-cli benchmark workloads (`bench/workloads.py`)
at seeds 1 and 2, in order of first appearance, then the cheap one-line
refusals and the large groups listed below.  `tests/test_queries.py`
replays the corpus; it reads only the JSON file and imports nothing from
`bench/`.  Rewriting the file is an output change: the diff names each argv
whose bytes moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "queries.json"

M61 = 2 ** 61 - 1
JUMP = str(10 ** 9)

# exit-2 refusals: each one line on stderr, each in milliseconds; the
# entries past jump 64, which a former cap on every jump refused, answer
REFUSALS = [
    ("count-minlift", "--q", "6", "--v", "3"),
    ("local-a", "--q", "6", "--v", "3"),
    ("count-minlift", "--q", "6", "--v", "-1"),
    ("count-minlift", "--q", "2", "--v", "-1"),
    ("count-minlift", "--q", "2", "--v", "30000"),
    ("count-minlift", "--q", "4", "--v", "23", "--mode", "enumeration"),
    ("count-d4", "--q", str(M61), "--v", "1"),
    ("count-d4", "--q", "2", "--v", "65"),
    ("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", "65"),
    ("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", "-1"),
    ("count-abelian", "--p", "1", "--q", "2", "--group", "1", "--v", "1"),
    ("growth", "--q", "2", "--x-max", "65"),
    ("census", "--q", "2", "--max-degree", "2237"),
    ("census", "--q", str(M61), "--max-degree", "287"),
    ("census", "--q", str(2 ** 1000), "--max-degree", "2236"),
    ("global-series", "--q", "2", "--x-max", "0", "--group", "1", "--p", "3"),
    ("global-series", "--q", "9", "--x-max", "0", "--group", "1", "--p", "2"),
    ("global-series", "--q", "4", "--x-max", "3", "--p", "3"),
    ("global-series", "--q", "4", "--x-max", "3", "--p", "4"),
    ("lift-dist", "--q", "2", "--a", "1:1", "--c", "3:1", "--v-max", "65"),
    ("minlift", "--q", str(2 ** 136), "--a", "1:1", "--c", "3:1"),
    ("minlift", "--q", "4", "--a", "1:1,1:01", "--c", "3:01"),
    ("minlift", "--q", "4", "--a", "1:01,1:1", "--c", "3:01"),
    ("minlift", "--q", "2", "--a", "-1:1", "--c", "3:1"),
    ("minlift", "--q", "2", "--a", "1_1:1", "--c", "3:1"),
    ("urtwist-check", "--q", "16", "--a", "1:1000", "--c", "3:1000",
     "--v-max", "11"),
    ("disc", "--p", "4", "--q", "16", "--group", "1", "--terms", "1:11"),
    ("disc", "--p", "2", "--q", "2", "--group", "1_0", "--terms", ""),
    ("disc", "--p", "3", "--q", "3", "--group", "1_0", "--terms", ""),
    ("disc", "--p", "2", "--q", "2", "--group", "13",
     "--terms", "1:1;0;0;0;0;0;0;0;0;0;0;0;0"),
    ("counterexample", "--p", "9", "--q", "9"),
    ("counterexample", "--p", "17", "--q", "17"),
    ("counterexample", "--p", "251", "--q", str(251 ** 4)),
    ("lj", "--p", str(M61), "--q", str(M61 ** 2), "--group", "1",
     "--terms", ""),
    ("lj", "--p", str(M61), "--q", str(M61 ** 24), "--group", "1",
     "--terms", ""),
    ("lj", "--p", "2", "--q", "2", "--group", "1,1", "--terms", "1:1"),
    ("lj", "--p", "2", "--q", "2", "--group", "2", "--terms", "1:1"),
    ("lj", "--p", "2", "--q", "2", "--group", "1,1",
     "--terms", "1:1|1|1,1:1|0"),
    ("lj", "--p", "2", "--q", "2", "--group", "1,1",
     "--terms", "1:1|1,1:1|1|1"),
    ("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1:1,"),
    ("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "x:1"),
    ("lj", "--p", "3", "--q", "3", "--group", "1", "--terms", "1:²"),
    ("lj", "--p", "3", "--q", "3", "--group", "1", "--terms", "-1:1"),
    ("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1_1:1"),
    ("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "+3:1"),
    # every path that reads a jump sizes it by the budget: at 10^9, and
    # the dihedral count over F_(2^60000) that printed 1.17 MB
    ("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", JUMP),
    ("count-d4", "--q", "2", "--v", JUMP),
    ("count-d4", "--q", str(Decimal(2 ** 60000)), "--v", "64"),
    ("local-a", "--q", "2", "--v", JUMP),
    ("count-minlift", "--q", "2", "--v", JUMP),
    ("count-minlift", "--q", "2", "--v", JUMP, "--mode", "enumeration"),
    ("lift-dist", "--q", "2", "--a", "1:1", "--c", "3:1", "--v-max", JUMP),
    ("urtwist-check", "--q", "2", "--a", "1:1", "--c", "3:1", "--v-max", JUMP),
    ("global-series", "--q", "2", "--x-max", JUMP),
    ("global-series", "--q", "2", "--x-max", JUMP, "--group", "1"),
    ("growth", "--q", "2", "--x-max", JUMP),
]

# groups past 4096, which a former cap on the group order refused
LARGE_GROUPS = [
    ("disc", "--p", "2", "--q", "2", "--group", ",".join(["1"] * 40),
     "--terms", "1:" + "|".join("1" + "0" * 39)
     + ",3:" + "|".join("01" * 20) + ",5:" + "|".join("0" * 39 + "1")
     + ",7:" + "|".join("0011" * 10)),
    ("count-abelian", "--p", "2", "--q", "2", "--group", ",".join(["1"] * 100),
     "--v", "63"),
    ("global-series", "--q", "2", "--x-max", "16",
     "--group", ",".join(["1"] * 20), "--p", "2"),
]


def bench_argvs() -> list[tuple[str, ...]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    argvs = []
    for seed in (1, 2):
        for build in (workloads.abelian_cli, workloads.dihedral_cli):
            argvs.extend(query.argv for query in build(seed))
    return argvs


def run(argv) -> dict:
    """The exit status, stdout and stderr of one in-process query."""
    from ramcount import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return {"argv": list(argv), "status": status,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    argvs = list(dict.fromkeys(bench_argvs() + REFUSALS + LARGE_GROUPS))
    GOLDEN.write_text(json.dumps([run(argv) for argv in argvs], indent=1) + "\n")
    print(f"wrote {len(argvs)} queries to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
