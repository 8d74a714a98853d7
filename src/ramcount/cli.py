"""Batch command-line front end with machine-readable output.

Every counting and verification operation is exposed as a subcommand that
writes a single JSON document (default) or a TSV table to stdout.
Diagnostics go to stderr.  Exit status: 0 on success, 1 when a verification
subcommand finds a failure, 2 on usage errors and when stdout or `--out`
cannot be written, 3 when a certificate fires.

Each query is one process, so start-up counts.  At module level this file
imports only the closed forms of `counts` and `errors`, and each handler
imports the library modules it computes with.  So `count-abelian`,
`count-d4`, `local-a` and `count-minlift` load no other library module,
`counterexample` adds `h3`, `census`, `global-series` and `growth` add
`euler`, the dihedral datum commands add `gf` and `d4`, `count-minlift
--mode enumeration` adds `d4` alone, and only `disc` and `verify` load
`witt` and `asw`.
`lj` reads the last jump off the digits of its terms, so it too loads only
`counts` and `errors`.  `main` builds the subparser of the command it runs
and no other.  Run as the process, it freezes the heap at exit, so that the
interpreter's final collections do not trace every live object once more.
The library's records are `collections.namedtuple` subclasses, so no query
loads `dataclasses`, and `fractions` is imported only where a Fraction is
made, so it loads only for `growth`, `counterexample` and `verify`.
`tests/test_cli.py` pins these module sets in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from . import counts
from .errors import InternalInconsistencyError, RamcountError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .asw import ReducedCocycle
    from .d4 import SparseTPoly
    from .gf import FieldDescriptor

SCHEMA_VERSION = 1
# the `--suite` choices: the keys of checks.SUITES, not imported at start-up
SUITE_NAMES = ("gf", "witt", "asw", "d4", "h3", "euler", "acceptance")


# ---------------------------------------------------------------------------
# input grammar
# ---------------------------------------------------------------------------
#   group  := exponent ("," exponent)*          e.g. "2,1" for Z/p^2 x Z/p
#   terms  := term ("," term)*                  empty string allowed
#   term   := INDEX ":" coeff
#   coeff  := part ("|" part)*                  one part per group factor
#   part   := comp (";" comp)*                  one component per Witt slot
#   comp   := base-p digits, constant digit first, field degree many
#   INDEX, exponent and every integer option := ["-"] ASCII digits
# ---------------------------------------------------------------------------

def integer(text: str) -> int:
    """The one integer rule: an optional "-" and ASCII digits 0-9, where
    int() would also read "1_0", " 3", "+3" and other scripts' digits.
    As an option's type, argparse names it: "invalid integer value"."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_group(text: str, p: int) -> counts.GroupShape:
    try:
        exponents = tuple(integer(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad group {text!r}")
    return counts.GroupShape(p, exponents)


def _read_terms(text: str):
    """Yield (index, term, coefficient text) for each "index:coeff" term of
    `text`, in order.  A repeated index raises when it is reached, so the
    first fault of an input is the one reported."""
    if not text.strip():
        return
    seen = set()
    for term in text.split(","):
        index_text, _, coeff_text = term.partition(":")
        try:
            index = integer(index_text)
        except ValueError:
            raise ValueError(f"bad term {term!r}")
        if index in seen:
            raise ValueError(f"index {index} appears twice")
        seen.add(index)
        yield index, term, coeff_text


def _abelian_terms(text: str, shape: counts.GroupShape, n: int):
    """Yield (index, coefficient) for each term of an abelian datum over
    GF(p^n): one part per group factor, each a tuple of digit tuples, one
    per Witt component.  A term is checked when it is reached, so the first
    fault of an input is the one reported."""
    p = shape.p
    for index, term, coeff_text in _read_terms(text):
        parts = coeff_text.split("|")
        if len(parts) != shape.rank:
            raise ValueError(f"term {term!r} needs {shape.rank} factor part(s)")
        coeff = []
        for part, exponent in zip(parts, shape.exponents):
            comps = part.split(";")
            if len(comps) != exponent:
                raise ValueError(
                    f"part {part!r} needs {exponent} Witt component(s)")
            coeff.append(tuple(counts.base_p_digits(c, p, n) for c in comps))
        yield index, tuple(coeff)


def parse_cocycle(text: str, shape: counts.GroupShape,
                  field: FieldDescriptor) -> ReducedCocycle:
    from .asw import ReducedCocycle
    from .witt import WittVector
    return ReducedCocycle(shape, field, {
        index: tuple(WittVector(field, tuple(map(field.element, comps)))
                     for comps in coeff)
        for index, coeff in _abelian_terms(text, shape, field.n)})


def parse_tpoly(text: str, field: FieldDescriptor) -> SparseTPoly:
    from .d4 import SparseTPoly
    return SparseTPoly.from_terms(field, {
        index: field.from_digits(coeff_text)
        for index, _, coeff_text in _read_terms(text)})


def _fraction_str(x: int | Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# handlers: each returns (result_dict, exit_code)
# ---------------------------------------------------------------------------

def _dihedral_pair(args) -> tuple[FieldDescriptor, SparseTPoly, SparseTPoly]:
    from .gf import field_for_order
    field = field_for_order(args.q, p=2)
    return field, parse_tpoly(args.a, field), parse_tpoly(args.c, field)


def cmd_lj(args):
    """`asw.last_jump` read off the digits, with no field: in W_e(F_q) a
    part whose first nonzero component is x_i is V^i of a unit, of additive
    order p^(e - i), and the jump at index n is n * (order // p).  The
    support-index rule is checked once every term is read, as the datum's
    constructor does after `parse_cocycle`."""
    shape = parse_group(args.group, args.p)
    p, n = counts.prime_power(args.q, args.p)
    terms = list(_abelian_terms(args.terms, shape, n))
    for index, _ in terms:
        counts.check_support_index(index, p)
    best = 0
    for index, coeff in terms:
        length = max((len(comps) - i for comps in coeff
                      for i, c in enumerate(comps) if any(c)), default=0)
        if index and length:
            best = max(best, index * p ** (length - 1))
    return {"last_jump": best}, 0


def cmd_disc(args):
    from . import asw
    from .gf import field_for_order
    shape = parse_group(args.group, args.p)
    m = parse_cocycle(args.terms, shape, field_for_order(args.q, p=args.p))
    return {"discriminant_exponent": asw.discriminant_exponent(m)}, 0


def cmd_count_abelian(args):
    shape = parse_group(args.group, args.p)
    count = counts.count_by_last_jump(shape, args.q, args.v, args.mode)
    return {"count": count, "mode": args.mode}, 0


def cmd_minlift(args):
    from . import d4
    _, a, c = _dihedral_pair(args)
    return {"min_lift_jump": d4.min_lift_jump(a, c)}, 0


def cmd_lift_dist(args):
    from . import d4
    _, a, c = _dihedral_pair(args)
    rows = [{"jump": v, "count": n}
            for v, n in d4.lift_jump_distribution(a, c, args.v_max)]
    return {"min_lift_jump": d4.min_lift_jump(a, c), "rows": rows}, 0


def cmd_urtwist_check(args):
    from . import d4
    field, a, c = _dihedral_pair(args)
    report = d4.unramified_twist_report(a, c, args.v_max)
    rows = []
    for cmp in report.comparisons:
        rows.append({
            "alpha": field.digits(cmp.alpha),
            "gamma": field.digits(cmp.gamma),
            "closed_form_equal": cmp.closed_form_equal,
            "enumerated_equal": ("n/a" if cmp.enumerated_equal is None
                                 else cmp.enumerated_equal),
        })
    return ({"all_equal": report.all_equal, "rows": rows},
            0 if report.all_equal else 1)


def cmd_count_minlift(args):
    if args.mode == "closed_form":
        count = counts.count_min_lift(args.q, args.v)
    else:
        from . import d4
        count = d4.count_min_lift_enumerated(args.q, args.v)
    return {"count": count, "mode": args.mode}, 0


def cmd_count_d4(args):
    return {"count_le": counts.count_d4_le(args.q, args.v)}, 0


def cmd_local_a(args):
    return {"coefficient": counts.count_d4_exact(args.q, args.v)}, 0


def cmd_census(args):
    from . import euler
    rows = [{"degree": d, "places": n}
            for d, n in euler.place_census(args.q, args.max_degree)]
    return {"q": args.q, "rows": rows}, 0


def cmd_global_series(args):
    from . import euler
    if args.group is not None:
        shape = parse_group(args.group, args.p)
        series = euler.abelian_global_series(shape, args.q, args.x_max)
    else:
        counts.prime_power(args.q, args.p)
        series = euler.d4_global_series(args.q, args.x_max)
    rows = [{"x": x, "coefficient": c} for x, c in enumerate(series)]
    return {"q": args.q, "rows": rows}, 0


def cmd_growth(args):
    from . import euler
    table = euler.growth_table(args.q, args.x_max)
    rows = []
    for row in table:
        rows.append({
            "x": row.x,
            "count": row.count,
            "ratio": _fraction_str(row.ratio),
            "relative_change": ("n/a" if row.relative_change is None
                                else _fraction_str(row.relative_change)),
        })
    return {"stabilises": euler.growth_stabilises(table), "rows": rows}, 0


def cmd_counterexample(args):
    from . import h3
    report = h3.counterexample_report(args.p, args.q)
    return {
        "p": report.p,
        "q": report.q,
        "local_count": report.local_count,
        "global_count": report.global_count,
        "discrepancy_ratio": _fraction_str(report.discrepancy_ratio),
        "local_breakdown": dict(report.local_breakdown),
        "global_breakdown": dict(report.global_breakdown),
    }, 0


def cmd_verify(args):
    from . import checks
    names = list(dict.fromkeys(args.suite)) if args.suite else SUITE_NAMES
    results = checks.run_suites(names, seed=args.seed)
    rows = [{"check": r.name, "status": "pass" if r.passed else "fail",
             "detail": r.detail} for r in results]
    ok = all(r.passed for r in results)
    return {"all_passed": ok, "rows": rows}, 0 if ok else 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(document: dict) -> str:
    return json.dumps(document, indent=2)


def render_tsv(document: dict) -> str:
    lines = []
    result = document["result"]
    scalars = {k: v for k, v in result.items() if k != "rows"}
    for key, value in scalars.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                lines.append(f"{key}.{k2}\t{v2}")
        else:
            lines.append(f"{key}\t{value}")
    rows = result.get("rows")
    if rows:
        header = list(rows[0])
        lines.append("\t".join(header))
        for row in rows:
            lines.append("\t".join(str(row[k]) for k in header))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_P = _option("--p", type=integer, required=True, help="characteristic")
_Q = _option("--q", type=integer, required=True,
             help="field cardinality (a prime power)")
_OUTPUT = (_option("--format", choices=("json", "tsv"), default="json"),
           _option("--out", help="also write the report to this file"))
_GROUP = _option("--group", required=True)
_A, _C = _option("--a", required=True), _option("--c", required=True)
_V = _option("--v", type=integer, required=True)
_V_MAX = _option("--v-max", type=integer, required=True)
_X_MAX = _option("--x-max", type=integer, required=True)

# command -> (help, its options in order); the handler of a command is
# cmd_<command>, with "_" for "-"
COMMANDS = {
    "lj": ("last jump of an abelian datum", (
        _P, _Q, *_OUTPUT,
        _option("--group", required=True, help="exponent list, e.g. 2,1"),
        _option("--terms", required=True, help="index:coefficient terms"))),
    "disc": ("discriminant exponent of an abelian datum",
             (_P, _Q, *_OUTPUT, _GROUP, _option("--terms", required=True))),
    "count-abelian": ("count abelian data by last jump", (
        _P, _Q, *_OUTPUT, _GROUP, _V,
        _option("--mode", choices=("homomorphisms", "inertial_types"),
                default="homomorphisms"))),
    "minlift": ("smallest lift jump of a dihedral reduction",
                (_Q, *_OUTPUT, _A, _C)),
    "lift-dist": ("lift counts by last jump", (_Q, *_OUTPUT, _A, _C, _V_MAX)),
    "urtwist-check": ("compare lift distributions across constant twists",
                      (_Q, *_OUTPUT, _A, _C, _V_MAX)),
    "count-minlift": ("quarter-count of reductions by smallest lift jump", (
        _Q, *_OUTPUT, _V,
        _option("--mode", choices=("closed_form", "enumeration"),
                default="closed_form"))),
    "count-d4": ("eighth-count of dihedral data with jump <= v",
                 (_Q, *_OUTPUT, _V)),
    "local-a": ("eighth-count with jump exactly v (polynomial in q)",
                (_Q, *_OUTPUT, _V)),
    "census": ("number of places by degree", (
        _Q, *_OUTPUT, _option("--max-degree", type=integer, required=True))),
    "global-series": ("Euler-product coefficients of the global count", (
        _Q, *_OUTPUT, _X_MAX,
        _option("--group", default=None,
                help="abelian exponent list; omit for the dihedral series"),
        _option("--p", type=integer, default=2,
                help="characteristic (needed with --group)"))),
    "growth": ("growth ratios of the dihedral count", (_Q, *_OUTPUT, _X_MAX)),
    "counterexample": ("local vs global Heisenberg counts at a degree-p place",
                       (_P, _Q, *_OUTPUT)),
    "verify": ("run invariant and acceptance suites", (
        *_OUTPUT,
        _option("--suite", action="append", choices=SUITE_NAMES,
                help="restrict to a suite (repeatable); default: all"),
        _option("--seed", type=integer, default=0))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    One command's parser builds in 1.6 ms first (argparse's first gettext
    lookup imports `locale`) and 0.2 ms warm, the full one in 1.9 ms warm
    (2-vCPU Xeon VM), so `main` builds the one command that argv names.
    That parser's usage still lists every command, so a usage error it
    reports reads as the full parser's.  The full parser keeps argparse's
    own listing, under which its errors name the argument "command".
    """
    parser = argparse.ArgumentParser(
        prog="ramcount",
        description="Exact counts of wildly ramified extensions by their "
                    "ramification invariants.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=globals()["cmd_" + name.replace("-", "_")])
    return parser


def _join_term_values(argv: list[str]) -> list[str]:
    """argv with each term option (`--terms`, `--a`, `--c`) joined to the
    value after it, as "--terms=value": argparse reads a lone value that
    starts with "-", such as the negative index of "-1:1", as an option, and
    a joined one reaches the term grammar, which reports it."""
    joined = []
    values = iter(argv)
    for arg in values:
        value = next(values, None) if arg in ("--terms", "--a", "--c") else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv=None) -> int:
    """Run one command and return its exit status.

    With no argv, main reads sys.argv and runs as the process: it registers
    `gc.freeze` to run at exit, once however often it is called, so that
    the interpreter's final collections skip the live heap (the modules
    `site` and the library loaded) instead of tracing it.  Stdout is
    printed with a flush and `--out` is closed before return, and nothing
    in the library defines `__del__` or holds a weak reference, so the
    skipped collections change no output.  A list argv, as from tests and
    in-process callers, registers nothing.
    """
    # exact counts can pass the int-to-str digit limit (Python 3.10.7 on)
    set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_int_max_str_digits is not None:
        set_int_max_str_digits(0)
    if argv is None:
        atexit.unregister(gc.freeze)
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(_join_term_values(argv))
    try:
        result, status = args.handler(args)
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (RamcountError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "result": result,
    }
    text = render_json(document) if args.format == "json" else render_tsv(document)
    # a closed stdout is None; a pipe whose reader left raises on write
    reason = "Bad file descriptor" if sys.stdout is None else None
    if reason is None:
        try:
            print(text, flush=True)
        except OSError as exc:
            import os
            # point stdout at the null device, so the flush at exit is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            reason = exc.strerror
    if reason is not None:
        print(f"error: cannot write stdout: {reason}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
