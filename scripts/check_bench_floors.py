#!/usr/bin/env python3
"""Re-check the floors the benches assert in-process, from the JSON they emit.

usage: check_bench_floors.py BENCH_<name>.json...

Every floor is read from the file it is checked against (the bench that
wrote the file put it there), so this script holds no threshold of its own;
it guards against a bench's in-process assertion being edited away. Exits
non-zero, one line per violation on stderr, when any file breaks a floor.
"""
import json
import sys


def figures(data):
    # The routed ratio is the speedup of the plan the router actually
    # chooses; under the floor the router shipped a losing plan.
    for c in data["cases"]:
        if c["ratio"] < c["floor"]:
            yield (f"{c['figure']}: routed ratio {c['ratio']} < floor "
                   f"{c['floor']} (routing={c['routing']})")


def exec_(data):
    # Per-case parallel-over-serial speedup at the biggest scale.
    for c in data["scales"][-1]["cases"]:
        if c["speedup"] < c["floor"]:
            yield f"{c['case']}: speedup {c['speedup']}x < floor {c['floor']}x"


def maintenance(data):
    # Full refresh over incremental maintenance of the same DELETE/UPDATE
    # statements at the largest size, and (full mode only: --quick has no
    # 1,024- and 32,768-row points) how an incremental DELETE grows.
    sweeps = data["sweeps"]
    worst, floor = sweeps[-1], data["min_refresh_over_incremental"]
    if worst["refresh_over_incremental"] < floor:
        yield (f"refresh is only {worst['refresh_over_incremental']}x "
               f"incremental maintenance at {worst['rows']} rows "
               f"(floor {floor}x)")
    if not data["quick"]:
        by_rows = {s["rows"]: s["delete_incremental_ns"] for s in sweeps}
        growth, ceiling = by_rows[32768] / by_rows[1024], data["max_delete_growth"]
        if growth > ceiling:
            yield (f"incremental DELETE grew {growth:.1f}x from 1024 to "
                   f"32768 rows (ceiling {ceiling}x)")


def result_cache(data):
    # A repeated query served from the result cache over executing it, and
    # a cold plan over a re-plan after a 1-row append, which must reuse the
    # cached match outcomes without a single navigator run.
    if data["speedup"] < data["min_speedup"]:
        yield (f"result-cache repeat is only {data['speedup']}x execution "
               f"(floor {data['min_speedup']}x)")
    if data["cold_over_replan"] < data["min_cold_over_replan"]:
        yield (f"cold plan is only {data['cold_over_replan']}x a re-plan "
               f"after DML (floor {data['min_cold_over_replan']}x)")
    if data["replan_navigator_runs"] != 0:
        yield (f"re-planning after DML ran the navigator "
               f"{data['replan_navigator_runs']} times (must be 0)")


CHECKS = {
    "figures": figures,
    "exec": exec_,
    "maintenance": maintenance,
    "result_cache": result_cache,
}


def main(paths):
    if not paths:
        sys.exit(__doc__)
    bad = False
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for violation in CHECKS[data["bench"]](data):
            print(f"{path}: {violation}", file=sys.stderr)
            bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
