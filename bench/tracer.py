"""Run one `ramcount` command with per-module counters attached from outside.

    python3 bench/tracer.py OUT.json <ramcount arguments...>

The library is imported unchanged; this file then wraps its public
functions and methods in place (module globals of every `ramcount` module
that hold the original, and class attributes for methods) and runs
`ramcount.cli.main`.  Stdout is left to the command, so it must be
byte-identical to an untraced run.

Each wrapped function keeps two aggregated counters, calls and self time
(its span minus the spans of wrapped functions it called).  Hot leaves
such as GF(q) multiplication are called millions of times, so no per-call
span is stored for them.  Coarse phases (the CLI's import, parse, handler
and render steps, each verify suite and acceptance criterion) are kept as
spans with start, end and parent.  Everything is held in memory and written
to OUT.json when the command ends, also when it is stopped by SIGTERM.
A name the library no longer has is reported with zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import re
import signal
import sys
import time
from pathlib import Path

# metric prefix -> module -> attribute path inside the module
FUNCTIONS: dict[str, dict[str, str]] = {
    "gf": {
        "mul": "FieldElement.__mul__", "add": "FieldElement.__add__",
        "pow": "FieldElement.__pow__", "inverse": "FieldElement.inverse",
        "make_field": "make_field", "elements": "FieldDescriptor.elements",
        "wp_transversal": "wp_transversal",
        "coset_representative": "coset_representative",
    },
    "witt": {
        "add": "WittVector.__add__", "neg": "WittVector.__neg__",
        "mul": "WittVector.__mul__", "scale": "WittVector.scale",
        "mul_by_p": "WittVector.mul_by_p", "witt_laws": "witt_laws",
    },
    "asw": {name: name for name in (
        "last_jump", "discriminant_exponent", "enumerate_subgroups",
        "quotient_datum", "inertia_image", "count_by_last_jump",
        "iter_module_elements")},
    "d4": {name: name for name in (
        "min_lift_jump_bruteforce", "enumerated_lift_distribution",
        "unramified_twist_report", "lift_jump_distribution", "count_min_lift",
        "epsilon_bound_report", "d4_last_jump")},
    "h3": {name: name for name in (
        "count_line_inertia", "counterexample_report",
        "smallest_wild_discriminant")},
    "euler": {
        "global_series": "global_series",
        "abelian_global_series": "abelian_global_series",
        "series_mul": "CountSeries.__mul__",
        "convolution_oracle": "convolution_oracle",
        "place_census": "place_census", "growth_table": "growth_table",
    },
}
SUITES = ("gf", "witt", "asw", "d4", "h3", "euler")
SPAN_NAMES = ([f"checks.suite.{s}.s" for s in SUITES]
              + [f"checks.criterion_{n}.s" for n in range(1, 9)]
              + [f"cli.{phase}.s" for phase in ("import", "parse", "handler", "render")])


def metric_names() -> list[str]:
    """Every name `Tracer.counters` reports, in a fixed order."""
    names = []
    for module, fns in FUNCTIONS.items():
        for fn in fns:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    return names + SPAN_NAMES


class Tracer:
    def __init__(self):
        self.stack = [0.0]      # child time of each open wrapped call
        self.functions: dict[str, list] = {}   # name -> [calls, self_s]
        self.spans: list[dict] = []
        self.open_spans: list[int] = []

    # -- aggregated counters -------------------------------------------------
    def counted(self, name: str, fn):
        stat = self.functions.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stat[1] += elapsed - stack.pop()
                        stack[-1] += elapsed
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    # -- coarse spans ----------------------------------------------------------
    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.open_spans[-1] if self.open_spans else None
        record = {"name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self.open_spans.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self.open_spans.pop()

    def counters(self) -> dict[str, float]:
        """Function counters, and span seconds not nested in a same-name span."""
        out = {}
        for module, fns in FUNCTIONS.items():
            for fn in fns:
                calls, self_s = self.functions.get(f"{module}.{fn}", (0, 0.0))
                out[f"{module}.{fn}.calls"] = calls
                out[f"{module}.{fn}.self_s"] = self_s
        out.update(dict.fromkeys(SPAN_NAMES, 0.0))
        for span in self.spans:
            if span["name"] in out and span["end"] is not None \
                    and not self._inside_same_name(span):
                out[span["name"]] += span["end"] - span["start"]
        return out

    def _inside_same_name(self, span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == span["name"]:
                return True
            parent = self.spans[parent]["parent"]
        return False


def _resolve(module, path: str):
    """(owner, attribute, value) for 'name' or 'Class.name'; None if gone."""
    owner = module
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    value = inspect.getattr_static(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


def _rebind(original, wrapper) -> None:
    """Point every ramcount module global that holds `original` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if name == "ramcount" or name.startswith("ramcount."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    import argparse
    import importlib

    for prefix, fns in FUNCTIONS.items():
        try:
            module = importlib.import_module(f"ramcount.{prefix}")
        except ModuleNotFoundError:
            continue
        for fn, path in fns.items():
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, value = found
            wrapper = tracer.counted(f"{prefix}.{fn}", value)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                _rebind(value, wrapper)

    cli = sys.modules["ramcount.cli"]
    for attr, value in list(vars(cli).items()):
        if attr.startswith("cmd_") and callable(value):
            setattr(cli, attr, tracer.spanned("cli.handler.s", value))
        elif attr in ("render_json", "render_tsv", "build_parser"):
            phase = "render" if attr.startswith("render") else "parse"
            setattr(cli, attr, tracer.spanned(f"cli.{phase}.s", value))
    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = tracer.spanned("cli.parse.s", parse_args)

    checks = sys.modules.get("ramcount.checks")
    if checks is None:
        return
    suites = getattr(checks, "SUITES", {})
    for name in SUITES:
        if name in suites:
            suites[name] = tracer.spanned(f"checks.suite.{name}.s", suites[name])
    criteria = getattr(checks, "acceptance_criteria", lambda: [])()
    for label, fn in criteria:
        number = re.match(r"criterion_(\d+)", label)
        if number:
            wrapper = tracer.spanned(f"checks.criterion_{number.group(1)}.s", fn)
            for attr, value in list(vars(checks).items()):
                if value is fn:
                    setattr(checks, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, args = Path(argv[0]), argv[1:]
    tracer = Tracer()

    def stop(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)

    status = 1
    try:
        with tracer.span("cli.import.s"):
            import ramcount.cli
        install(tracer)
        status = ramcount.cli.main(args)
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.stdout.flush()
        out_path.write_text(json.dumps({"counters": tracer.counters(),
                                        "spans": tracer.spans}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
