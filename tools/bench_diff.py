#!/usr/bin/env python3
"""Compare two bench --json reports and fail on wall-clock regressions.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--tolerance PCT]
                  [--min-seconds S] [--metric NAME]

Entries are matched across the two reports by their configuration fields
(everything that is not a measurement); for each matched pair the primary
timing metric (wall_seconds, falling back to total_seconds) is compared.

Exit codes (the CI contract):
    0  comparable, no regression beyond the tolerance
    1  regression: at least one matched entry slowed down > tolerance
    2  usage error (missing/unreadable/malformed input) -- fails CI
    3  incomparable reports (different bench, profile, scale or schema
       version, or nothing matched) -- CI treats this as a labeled skip,
       never as a silent pass

Tolerance defaults to the TWRS_BENCH_TOLERANCE environment variable, or
10 (percent) when unset. Entries whose baseline timing is below
--min-seconds (default 0.05 s) are reported but never gated: timings that
small are dominated by scheduler noise on shared CI runners.
"""

import argparse
import json
import os
import sys

# Fields that carry measurements rather than configuration. Anything else
# in a result entry identifies *what* was measured and becomes part of the
# match key.
_MEASUREMENT_SUFFIXES = ("_seconds", "_per_second", "_count")
_MEASUREMENT_FIELDS = {
    "bytes_read",
    "bytes_written",
    "num_runs",
    "merge_steps",
    "shrunk_admissions",
    "peak_queued",
    "peak_running",
    "speedup",
    "runs_pruned",
    "records_pruned",
    "speedup_vs_full_sort",
}
# Deliberately NOT measurements: `limit`, `strategy` and `order`
# (bench_topk) identify which top-K plan a row measured, so they stay in
# the match key — a K=400 dual-heap row only ever compares against the
# same plan in the baseline. Likewise `io_backend` (bench_parallel_sort):
# it names the Env the row ran on (posix vs uring),
# so a uring row is only ever compared against the baseline's uring row —
# a posix-vs-uring delta is a comparison the sweep itself reports, not a
# regression for this tool to flag.
# Header fields that must agree for two reports to be comparable at all.
_IDENTITY_FIELDS = ("bench", "profile", "scale", "schema_version")


def _is_measurement(key):
    return key in _MEASUREMENT_FIELDS or key.endswith(_MEASUREMENT_SUFFIXES)


def _entry_key(entry):
    return tuple(
        sorted((k, v) for k, v in entry.items() if not _is_measurement(k))
    )


def _load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except OSError as e:
        raise SystemExit2(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit2(f"{path} is not valid JSON: {e}")
    if not isinstance(report, dict) or "results" not in report:
        raise SystemExit2(f"{path} has no 'results' array")
    return report


class SystemExit2(Exception):
    """Usage error: exit 2."""


def _fmt_key(key):
    parts = [f"{k}={v}" for k, v in key]
    return ", ".join(parts) if parts else "(default entry)"


def compare(baseline, current, metric, tolerance_pct, min_seconds, out):
    """Returns the process exit code; prints a line per comparison."""
    for field in _IDENTITY_FIELDS:
        b, c = baseline.get(field), current.get(field)
        if b != c:
            out.write(
                f"INCOMPARABLE: {field} differs "
                f"(baseline {b!r} vs current {c!r})\n"
            )
            return 3

    base_by_key = {_entry_key(e): e for e in baseline["results"]}
    cur_by_key = {_entry_key(e): e for e in current["results"]}
    matched = sorted(set(base_by_key) & set(cur_by_key))
    if not matched:
        out.write("INCOMPARABLE: no result entries match between reports\n")
        return 3

    unmatched = len(base_by_key) + len(cur_by_key) - 2 * len(matched)
    if unmatched:
        out.write(f"note: {unmatched} unmatched entries skipped\n")

    regressions = 0
    compared = 0
    for key in matched:
        b_entry, c_entry = base_by_key[key], cur_by_key[key]
        name = metric if metric in b_entry else None
        if name is None:
            for candidate in ("wall_seconds", "total_seconds"):
                if candidate in b_entry and candidate in c_entry:
                    name = candidate
                    break
        if name is None or name not in c_entry:
            continue
        b_val, c_val = float(b_entry[name]), float(c_entry[name])
        compared += 1
        delta_pct = 100.0 * (c_val - b_val) / b_val if b_val > 0 else 0.0
        label = _fmt_key(key)
        if b_val < min_seconds:
            out.write(
                f"  skip [{label}] {name}: baseline {b_val:.4f}s below "
                f"noise floor ({min_seconds:.3f}s)\n"
            )
            continue
        verdict = "ok"
        if delta_pct > tolerance_pct:
            verdict = "REGRESSION"
            regressions += 1
        elif delta_pct < -tolerance_pct:
            verdict = "improved"
        out.write(
            f"  {verdict} [{label}] {name}: {b_val:.3f}s -> {c_val:.3f}s "
            f"({delta_pct:+.1f}%, tolerance {tolerance_pct:.0f}%)\n"
        )

    if compared == 0:
        out.write("INCOMPARABLE: matched entries carry no timing metric\n")
        return 3
    if regressions:
        out.write(
            f"FAIL: {regressions}/{compared} compared entries regressed "
            f"beyond {tolerance_pct:.0f}%\n"
        )
        return 1
    out.write(f"OK: {compared} entries compared, no regression\n")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("TWRS_BENCH_TOLERANCE", "10")),
        help="allowed slowdown in percent (default: $TWRS_BENCH_TOLERANCE or 10)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="baseline timings below this are never gated (noise floor)",
    )
    parser.add_argument(
        "--metric",
        default="wall_seconds",
        help="preferred timing field (falls back to total_seconds)",
    )
    try:
        args = parser.parse_args(argv)
        baseline = _load_report(args.baseline)
        current = _load_report(args.current)
    except SystemExit2 as e:
        sys.stderr.write(f"bench_diff: {e}\n")
        return 2
    if args.tolerance < 0:
        sys.stderr.write("bench_diff: tolerance must be non-negative\n")
        return 2
    return compare(
        baseline, current, args.metric, args.tolerance, args.min_seconds,
        sys.stdout,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
