#!/usr/bin/env python3
"""The bench regression gate: every bound on a `bench_json` number lives here.

    bench_gate.py RUN.jsonl HISTORY.jsonl

RUN.jsonl is what `bench_json --suite all --quick --out RUN.jsonl` just
wrote; HISTORY.jsonl is the committed BENCH_history.jsonl. Each suite in the
run is checked on its own rows and, where a bound is relative, against that
suite's last `quick: false` line in the history. Ratios and speedups are
derived here from the rows; the report stores none.
Quick CI runs on shared runners are noisy, so relative bounds carry slack and
a floor that a real regression still trips.
"""

import json
import sys

SCHEMA = "bench/report-v1"

REQUIRED = {
    "observability": [
        "scheme_cost/preds200",
        "telemetry_overhead/disabled",
        "telemetry_overhead/counters",
        "telemetry_overhead/tracing",
        "telemetry_primitive/counter_inc",
        "telemetry_primitive/histogram_record",
        "attribution_overhead/baseline",
        "attribution_overhead/profiled",
        "engine/allocs_per_event/batch128",
        "predindex/residual_tests_per_match/scheme200",
        "ibs/bytes_per_interval/stab_shape",
        "predindex/bytes_per_predicate/stab_shape",
        "rules/bytes_per_rule/stab_shape",
    ],
    "join": [
        "join/2premise/n1000/memoized",
        "join/2premise/n1000/naive",
        "join/3premise/n1000/memoized",
        "join/3premise/n1000/naive",
        "join/retract/alpha1k",
        "join/retract/alpha10k",
        "join/retract/alpha100k",
        "join/snapshot_capture/tokens10k",
        "join/snapshot_capture/tokens100k",
        "join/bytes_per_alpha_entry/memos20",
    ],
}


def load(path):
    with open(path) as f:
        docs = [json.loads(line) for line in f if line.strip()]
    for doc in docs:
        assert doc["schema"] == SCHEMA, (path, doc["schema"])
    return docs


def rows_by_name(doc):
    return {row["name"]: row for row in doc["rows"]}


def ns_ratio(rows, numerator, denominator):
    return rows[numerator]["ns_per_op"] / rows[denominator]["ns_per_op"]


def gate_observability(rows, base):
    # Profiler attribution overhead on the rule chain: the committed ratio
    # with 1.5x slack, floored at 1.30.
    ratio = ns_ratio(rows, "attribution_overhead/profiled", "attribution_overhead/baseline")
    base_ratio = ns_ratio(base, "attribution_overhead/profiled", "attribution_overhead/baseline")
    bound = max(base_ratio * 1.5, 1.30)
    assert ratio <= bound, ("attribution overhead", ratio, base_ratio, bound)
    # The enabled-mode cost of live counters on the match path: the
    # committed ratio with 1.15x slack, floored at 1.20 (ROADMAP aim 4
    # keeps it gated; the committed lines read 1.05-1.21).
    counters = ns_ratio(rows, "telemetry_overhead/counters", "telemetry_overhead/disabled")
    base_counters = ns_ratio(base, "telemetry_overhead/counters", "telemetry_overhead/disabled")
    counters_bound = max(base_counters * 1.15, 1.20)
    assert counters <= counters_bound, ("counter overhead", counters, base_counters, counters_bound)
    # Heap allocations per event of one batch through the rule chain: a
    # count, identical on every host, so the committed one with 10% room
    # and no floor.
    name = "engine/allocs_per_event/batch128"
    allocs, base_allocs = rows[name]["allocs_per_event"], base[name]["allocs_per_event"]
    assert allocs <= base_allocs * 1.10, (name, allocs, base_allocs)
    # Tests one scheme-scenario match runs (tree candidates plus one per
    # opaque clause set swept): a count, so the same 10% room and no floor
    # (a sweep that tests every predicate again read 38.7 against 29.7).
    name = "predindex/residual_tests_per_match/scheme200"
    tests, base_tests = rows[name]["residual_tests_per_match"], base[name]["residual_tests_per_match"]
    assert tests <= base_tests * 1.10, (name, tests, base_tests)
    # Live heap bytes per interval of the match_stab-shaped IBS-trees: a
    # count, so the same 10% room and no floor (the layout before
    # one-cache-line nodes read 643.7 against 556.3).
    name = "ibs/bytes_per_interval/stab_shape"
    per_interval, base_per_interval = rows[name]["bytes_per_interval"], base[name]["bytes_per_interval"]
    assert per_interval <= base_per_interval * 1.10, (name, per_interval, base_per_interval)
    # Live heap bytes per predicate of the whole index over the same rules:
    # a count, so the same 10% room and no floor (a PREDICATES table that
    # kept every bound form beside its source read 1097.4 against 905.5).
    name = "predindex/bytes_per_predicate/stab_shape"
    per_predicate, base_per_predicate = rows[name]["bytes_per_predicate"], base[name]["bytes_per_predicate"]
    assert per_predicate <= base_per_predicate * 1.10, (name, per_predicate, base_per_predicate)
    # Live heap bytes per rule the engine keeps beyond its index over the
    # same rules: a count, so the same 10% room and no floor (a cold half
    # that kept a copy of every condition read 728.9 against 321.5).
    name = "rules/bytes_per_rule/stab_shape"
    per_rule, base_per_rule = rows[name]["bytes_per_rule"], base[name]["bytes_per_rule"]
    assert per_rule <= base_per_rule * 1.10, (name, per_rule, base_per_rule)
    return ("attribution ratio %.3f (baseline %.3f, bound %.3f); counter overhead %.3f (baseline %.3f, bound %.3f); "
            "%.3f allocations per event (committed %.3f); "
            "%.3f residual tests per match (committed %.3f); %.1f IBS bytes per interval (committed %.1f); "
            "%.1f index bytes per predicate (committed %.1f); %.1f engine bytes per rule (committed %.1f)") % (
        ratio, base_ratio, bound, counters, base_counters, counters_bound, allocs, base_allocs, tests, base_tests, per_interval, base_per_interval,
        per_predicate, base_per_predicate, per_rule, base_per_rule)


def gate_join(rows, base):
    speedups = []
    for name in rows:
        if not name.endswith("/memoized"):
            continue
        config = name[: -len("/memoized")]
        speedup = ns_ratio(rows, config + "/naive", name)
        assert speedup >= 5, ("memo slower than 5x over naive", config, speedup)
        speedups.append((config, round(speedup, 2)))
    # Memo upkeep costs what it changes: a retraction from a premise no
    # equality step keys, and a snapshot capture, must not grow with the
    # memo around them. The same work at 100x / 10x the size, within 2x
    # (a scan of the alpha memory read 40x at the parent of PR 21).
    flat = []
    for small, large in [
        ("join/retract/alpha1k", "join/retract/alpha100k"),
        ("join/snapshot_capture/tokens10k", "join/snapshot_capture/tokens100k"),
    ]:
        growth = ns_ratio(rows, large, small)
        assert growth <= 2, ("cost grows with the memo", large, small, growth)
        flat.append((large, round(growth, 2)))
    # Memos share the rows they hold: live heap bytes per alpha entry of 20
    # memos over the same rows, a count identical on every host, so the
    # committed one with 10% room and no floor (a memo that copies its rows
    # read x2.5 at the parent of PR 25).
    name = "join/bytes_per_alpha_entry/memos20"
    per_entry, base_per_entry = rows[name]["bytes_per_entry"], base[name]["bytes_per_entry"]
    assert per_entry <= base_per_entry * 1.10, (name, per_entry, base_per_entry)
    return "speedups %s; growth %s; %.1f bytes per alpha entry (committed %.1f)" % (
        speedups, flat, per_entry, base_per_entry)


GATES = {"observability": gate_observability, "join": gate_join}


def main(run_path, history_path):
    run, history = load(run_path), load(history_path)
    suites = [doc["suite"] for doc in run]
    assert sorted(suites) == sorted(GATES), ("the run must hold each suite once", suites)
    for doc in run:
        suite, rows = doc["suite"], rows_by_name(doc)
        missing = [name for name in REQUIRED[suite] if name not in rows]
        assert not missing, (suite, "rows missing", missing)
        for name, row in rows.items():
            assert row.get("ns_per_op", 1.0) > 0, (name, row)
        bases = [d for d in history if d["suite"] == suite and not d["quick"]]
        assert bases, "no full (quick: false) %s line in %s" % (suite, history_path)
        print("%s ok: %s" % (suite, GATES[suite](rows, rows_by_name(bases[-1]))))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
