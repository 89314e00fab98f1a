"""Run one quadclass CLI invocation with spans recorded around its layers.

usage: python3 perfbench/traced_cli.py SPANS_PATH RUN_ID -- CLI_ARGS...

The wrappers replace public functions in the module where their callers
look them up, so the program itself is unchanged. Each span is a dict
(name, run, pid, start, end, parent, optional counts) with times from
time.perf_counter (CLOCK_MONOTONIC, comparable across processes). Spans
are kept in memory and written to SPANS_PATH as JSON lines when the
invocation ends. Pool workers forked from this process inherit the
wrappers but exit without running exit hooks, so a worker appends each of
its spans to SPANS_PATH.<pid> as the span ends.

Exits with code 70 before running the CLI if a name it wraps is missing.
"""

import functools
import json
import os
import sys
import time

EXIT_MISSING = 70
clock = time.perf_counter


class Tracer:
    def __init__(self, path, run_id):
        self.path = path
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        rec = {"name": name, "run": self.run_id, "pid": os.getpid(),
               "parent": parent, "start": clock()}
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec["end"] = clock()
        self.stack.pop()

    def keep(self, rec):
        """Workers write each finished span at once; see the module docstring."""
        if rec["pid"] != self.pid:
            with open(f"{self.path}.{rec['pid']}", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before/after return extra fields for it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            if before:
                rec.update(before(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after:
                rec.update(after(result, *args, **kwargs))
            self.keep(rec)
            return result
        return traced

    def write(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _class_infos_before(ds, *, cache=None, **_):
    wanted = set(ds)
    hits = sum(1 for d in wanted if d in cache) if cache else 0
    return {"requested": len(wanted), "from_cache": hits}


def install(tracer, arith, experiments, forms, cli):
    """Wrap every traced name; raises LookupError naming any that is missing."""
    targets = [
        # (module, attribute, span name, before, after)
        (experiments, "sieve_squarefree", "arith.sieve_squarefree",
         lambda lo, hi, *a, **k: {"cells": hi - lo + 1}, None),
        (arith, "sieve_squarefree", "arith.sieve_squarefree",
         lambda lo, hi, *a, **k: {"cells": hi - lo + 1}, None),
        (arith, "count_squarefree_in_ap", "arith.count_squarefree_in_ap", None, None),
        (experiments, "smallest_prime_factors", "arith.smallest_prime_factors",
         None, lambda res, *a, **k: {"entries": len(res)}),
        (experiments, "compute_class_infos", "experiments.compute_class_infos",
         _class_infos_before, None),
        (arith, "classify_discriminant", "arith.classify_discriminant", None, None),
        (forms, "classify_discriminant", "arith.classify_discriminant", None, None),
        (forms, "class_group_info", "forms.class_group_info", None, None),
        (cli, "cache_load", "cli.cache_load", None,
         lambda res, *a, **k: {"records": len(res)}),
        (cli, "cache_store", "cli.cache_store", None,
         lambda res, path, *a, **k: {"bytes": os.path.getsize(path)}),
        (cli, "render_report", "cli.render_report", None, None),
    ]
    missing = [f"{m.__name__}.{attr}" for m, attr, *_ in targets if not hasattr(m, attr)]
    runners = getattr(cli, "_EXPERIMENTS", None)
    if not isinstance(runners, dict):
        missing.append("quadclass.cli._EXPERIMENTS")
    if missing:
        raise LookupError("names to trace are missing: " + ", ".join(missing))
    for module, attr, name, before, after in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), before, after))
    # The CLI holds its experiment runners in a table built at import time.
    for command, (runner, level) in list(runners.items()):
        runners[command] = (tracer.wrap(f"experiments.{command}", runner), level)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer(argv[0], argv[1])
    rec = tracer.begin("import")
    from quadclass import arith, cli, experiments, forms
    tracer.end(rec)
    try:
        install(tracer, arith, experiments, forms, cli)
    except LookupError as exc:
        print(f"traced_cli: {exc}", file=sys.stderr)
        return EXIT_MISSING
    rec = tracer.begin("cli.run")
    try:
        code = cli.run(argv[3:])
    finally:
        tracer.end(rec)
        tracer.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
