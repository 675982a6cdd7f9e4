#!/usr/bin/env python3
"""Compare two bench JSON snapshots (bench_util.h JsonRecords documents).

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [--threshold=0.10] [--min-seconds=0.02] [--fail-on-regression]
    scripts/bench_compare.py --selftest

Matches records by their parameter key (dataset, threads, per, minPS
fraction, minRec, and the windowed-bench window/delta sizes), then:

  * flags every per-stage time field (list/tree/mine/wall, the
    partial-trie fold, and the windowed per-delta / re-mine costs) that
    regressed by more than --threshold (default 10%), ignoring stages
    under --min-seconds in BOTH snapshots (pure timer noise);
  * flags any schedule-invariant counter (patterns, merge / gate-scan
    counters, and the windowed maintenance counters) that changed at
    all — those are correctness drift, not noise, and always fail the
    comparison;
  * reports stage or counter fields present on only one side as
    informational "new field" / "removed field" rows — a bench gaining
    or losing instrumentation is an expected schema change, not a
    mismatch (it becomes one only when the shared fields disagree);
  * refuses to compare times across snapshots taken at different scales,
    hardware_concurrency or SIMD dispatch levels (counter checks still
    run — they are machine-independent).

Exit status: 1 on any counter drift; 1 on a time regression only when
--fail-on-regression is given (time regressions are advisory otherwise);
0 else; 2 on malformed input. scripts/verify.sh runs this against the
committed bench_runs/ smoke snapshots — so counter drift fails it while
time regressions are only reported — and runs --selftest (synthetic
documents exercising every row class and both exit paths) first.
"""

import argparse
import json
import sys

TIME_FIELDS = [
    "wall_seconds",
    "list_seconds",
    "tree_seconds",
    "mine_seconds",
    "layout_seconds",
    "tree_merge_seconds",
    "per_delta_seconds",
    "batch_remine_seconds",
]

# Schedule-invariant counters: identical inputs must produce identical
# values regardless of machine, threads or SIMD level. The windowed
# maintenance counters qualify because the record key pins the delta
# schedule (window_txns, delta_txns) alongside the thresholds.
COUNTER_FIELDS = [
    "patterns_emitted",
    "merge_invocations",
    "runs_merged",
    "timestamps_merged",
    "gate_lists_scanned",
    "gate_gaps_scanned",
    "patterns_final",
    "timestamps_appended",
    "timestamps_retired",
    "transactions_expired",
    "nodes_retired",
    "compactions",
]

KEY_FIELDS = ["dataset", "threads", "per", "min_ps_frac", "min_rec",
              "window_txns", "delta_txns"]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot load {path}: {e}")
    if "records" not in doc:
        sys.exit(f"bench_compare: {path} is not a bench report (no records)")
    return doc


def record_key(rec):
    return tuple(rec.get(k) for k in KEY_FIELDS)


def fmt_key(key):
    parts = [f"{name}={val}" for name, val in zip(KEY_FIELDS, key)
             if val is not None]
    return " ".join(parts)


class Comparison:
    """Outcome buckets of one snapshot comparison."""

    def __init__(self):
        self.matched = 0
        self.drift = []          # Schedule-invariant counter changes.
        self.regressions = []    # Times past the threshold the bad way.
        self.improvements = []   # Times past the threshold the good way.
        self.infos = []          # One-sided records and fields.


def exit_status(out, fail_on_regression):
    """Counter drift always fails; time regressions only on request."""
    if out.drift:
        return 1
    if out.regressions and fail_on_regression:
        return 1
    return 0


def compare(base, cur, threshold, min_seconds, compare_times):
    """Pure comparison of two loaded documents; printing is the caller's."""
    out = Comparison()
    base_by_key = {record_key(r): r for r in base["records"]}
    for rec in cur["records"]:
        key = record_key(rec)
        old = base_by_key.get(key)
        if old is None:
            out.infos.append(f"new record (no baseline): {fmt_key(key)}")
            continue
        out.matched += 1
        for field in COUNTER_FIELDS + TIME_FIELDS:
            in_old, in_cur = field in old, field in rec
            if in_old and not in_cur:
                out.infos.append(
                    f"{fmt_key(key)}: removed field (baseline only): {field}")
            elif in_cur and not in_old:
                out.infos.append(
                    f"{fmt_key(key)}: new field (current only): {field}")
        for field in COUNTER_FIELDS:
            if field in old and field in rec and old[field] != rec[field]:
                out.drift.append(
                    f"{fmt_key(key)}: COUNTER {field} changed "
                    f"{old[field]} -> {rec[field]}")
        if not compare_times:
            continue
        for field in TIME_FIELDS:
            if field not in old or field not in rec:
                continue
            b, c = float(old[field]), float(rec[field])
            if b < min_seconds and c < min_seconds:
                continue
            if b <= 0.0:
                continue
            delta = (c - b) / b
            line = (f"{fmt_key(key)}: {field} "
                    f"{b:.3f}s -> {c:.3f}s ({delta:+.1%})")
            if delta > threshold:
                out.regressions.append(line)
            elif delta < -threshold:
                out.improvements.append(line)

    dropped = set(base_by_key) - {record_key(r) for r in cur["records"]}
    for key in sorted(dropped, key=str):
        out.infos.append(f"dropped record (baseline only): {fmt_key(key)}")
    return out


def selftest():
    """Synthetic documents exercising each row class; exits nonzero on
    any deviation from the contract pinned here."""
    def doc(records):
        return {"bench": "selftest", "records": records}

    base = doc([
        {"dataset": "a", "threads": 1, "patterns_emitted": 10,
         "nodes_retired": 3, "mine_seconds": 1.0, "tree_seconds": 0.5},
        {"dataset": "gone", "threads": 1, "patterns_emitted": 1},
    ])
    cur = doc([
        # Counter drift (fatal), time regression (advisory), one removed
        # and one new field (informational).
        {"dataset": "a", "threads": 1, "patterns_emitted": 10,
         "nodes_retired": 4, "mine_seconds": 1.5,
         "compactions": 2},
        {"dataset": "fresh", "threads": 1, "patterns_emitted": 2},
    ])
    out = compare(base, cur, threshold=0.10, min_seconds=0.02,
                  compare_times=True)
    failures = []
    if out.matched != 1:
        failures.append(f"matched {out.matched}, want 1")
    if out.drift != ["dataset=a threads=1: COUNTER nodes_retired changed "
                     "3 -> 4"]:
        failures.append(f"drift {out.drift}, want the nodes_retired change")
    if len(out.regressions) != 1 or not ("mine_seconds" in out.regressions[0]
                                         and "+50.0%" in out.regressions[0]):
        failures.append(f"regressions {out.regressions}, want the "
                        "mine_seconds +50% row only")
    # Exit paths: drift fails with or without --fail-on-regression.
    for flag in (False, True):
        if exit_status(out, flag) != 1:
            failures.append(f"counter drift exits 0 (fail_on_regression="
                            f"{flag})")
    if not any("removed field (baseline only): tree_seconds" in i
               for i in out.infos):
        failures.append("one-sided baseline field not informational")
    if not any("new field (current only): compactions" in i
               for i in out.infos):
        failures.append("one-sided current field not informational")
    if not any("new record" in i and "dataset=fresh" in i
               for i in out.infos):
        failures.append("unmatched current record not informational")
    if not any("dropped record" in i and "dataset=gone" in i
               for i in out.infos):
        failures.append("unmatched baseline record not informational")

    # Identical docs: nothing flagged; time improvements land in their
    # own bucket, never in regressions.
    clean = compare(base, base, 0.10, 0.02, True)
    if clean.drift or clean.regressions or clean.improvements:
        failures.append("self-comparison not clean")
    for flag in (False, True):
        if exit_status(clean, flag) != 0:
            failures.append(f"clean comparison exits nonzero "
                            f"(fail_on_regression={flag})")
    # A time-only regression is advisory: exit 0 unless requested.
    slower = doc([{"dataset": "a", "threads": 1, "patterns_emitted": 10,
                   "nodes_retired": 3, "mine_seconds": 1.5,
                   "tree_seconds": 0.5}])
    slow = compare(base, slower, 0.10, 0.02, True)
    if slow.drift or len(slow.regressions) != 1:
        failures.append(f"time-only regression misclassified: drift "
                        f"{slow.drift}, regressions {slow.regressions}")
    if exit_status(slow, False) != 0:
        failures.append("time-only regression exits nonzero without "
                        "--fail-on-regression")
    if exit_status(slow, True) != 1:
        failures.append("time-only regression exits 0 with "
                        "--fail-on-regression")
    faster = doc([{"dataset": "a", "threads": 1, "patterns_emitted": 10,
                   "nodes_retired": 3, "mine_seconds": 0.5,
                   "tree_seconds": 0.5}])
    sped = compare(base, faster, 0.10, 0.02, True)
    if sped.drift or sped.regressions or not any("mine_seconds" in i
                                   for i in sped.improvements):
        failures.append("improvement misclassified")

    for f in failures:
        print(f"selftest: FAIL: {f}")
    if failures:
        return 1
    print("bench_compare: selftest OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative time regression to flag (0.10 = 10%%)")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="ignore time stages below this in both runs")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any regression is flagged")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in contract checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required (or --selftest)")

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("bench") != cur.get("bench"):
        sys.exit(f"bench_compare: different benches: "
                 f"{base.get('bench')!r} vs {cur.get('bench')!r}")

    compare_times = True
    for field in ["scale", "hardware_concurrency", "simd_level"]:
        b, c = base.get(field), cur.get(field)
        if b is not None and c is not None and b != c:
            print(f"bench_compare: WARNING: {field} differs "
                  f"({b} vs {c}) — skipping time comparison, "
                  f"checking counters only")
            compare_times = False

    out = compare(base, cur, args.threshold, args.min_seconds, compare_times)

    print(f"bench_compare: {base.get('bench')} — {out.matched} record(s) "
          f"matched, threshold {args.threshold:.0%}")
    for line in out.infos:
        print(f"  note:      {line}")
    for line in out.improvements:
        print(f"  improved:  {line}")
    for line in out.regressions:
        print(f"  REGRESSED: {line}")
    for line in out.drift:
        print(f"  DRIFTED:   {line}")
    if out.drift:
        print(f"bench_compare: {len(out.drift)} schedule-invariant counter(s) "
              f"drifted (fatal)")
    if out.regressions:
        advisory = "" if args.fail_on_regression else " (advisory)"
        print(f"bench_compare: {len(out.regressions)} time regression(s) "
              f"flagged{advisory}")
    if not out.drift and not out.regressions:
        print("bench_compare: no per-stage regression")
    return exit_status(out, args.fail_on_regression)


if __name__ == "__main__":
    sys.exit(main())
