#!/usr/bin/env python3
"""Validate chaos-smoke runs of the serving CLIs under fault injection.

This is the tool the CI chaos-smoke job invokes after running route_server
(or sweep_cli) with --faults / a faulty: oracle spec. Three modes:

  validate <log> [--expect PREFIX ...] [--max-failed-frac F]
      Structural checks on one run's stdout: the summary lines the server
      always prints ("hops:", "admission:") are present, every --expect
      prefix ("resilience:", "adaptive:", "mutations:") found its line, no
      "error:" line leaked through, and the resilience tallies parse — at
      least one pair admitted and failed_pairs / pairs_admitted within
      --max-failed-frac (default 0.05, the >= 95% served acceptance bar).

  determinism <log_a> <log_b>
      The chaos contract: every fault draw is a pure function of
      (seed, target, attempt), so two same-seed runs must agree byte for
      byte on the deterministic summary lines — hops:, resilience:,
      adaptive:, mutations:, invalidation:. Wall-clock surfaces (sojourn
      quantiles, "admission:" peak-queue depth, service totals) are
      excluded: they measure the scheduler, not the schedule.

  jsonl-determinism <a.jsonl> <b.jsonl>
      Same contract for sweep_cli's --jsonl records: compares the two runs
      line by line after masking wall-clock keys (seconds), pinning the
      routed metrics (hop counts, greedy diameter, stretch) exactly.

Exit code: 0 when every check passes, 1 on a validation failure, 2 on
unreadable input / bad usage. Prints one line per failure so the CI log is
enough to diagnose.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Summary lines that are pure functions of (seed, fault schedule, demand):
# the surface two same-seed chaos runs must reproduce byte for byte.
DETERMINISTIC_PREFIXES = (
    "hops:",
    "resilience:",
    "adaptive:",
    "mutations:",
    "invalidation:",
)

# Wall-clock observations inside sweep jsonl records: masked before the
# line-by-line comparison. Everything else is pinned exactly.
MASKED_KEYS = {"seconds"}

RESILIENCE_LINE = re.compile(
    r"^resilience: (?P<injected>\d+) injected failures, (?P<retries>\d+) "
    r"retries, (?P<fallback>\d+) fallback pairs, (?P<degraded>\d+) degraded, "
    r"(?P<failed>\d+) failed$"
)
ADMISSION_LINE = re.compile(r"^admission: (?P<admitted>\d+) admitted, ")


def read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def validate(args: argparse.Namespace) -> int:
    lines = read_lines(args.log)
    failures = []

    def require_line(prefix: str) -> str | None:
        for line in lines:
            if line.startswith(prefix):
                return line
        failures.append(f"missing '{prefix}' line")
        return None

    for line in lines:
        if line.startswith("error:"):
            failures.append(f"run reported an error: {line}")

    require_line("hops:")
    admission = require_line("admission:")
    for prefix in args.expect:
        require_line(prefix if prefix.endswith(":") else prefix + ":")

    admitted = 0
    if admission is not None:
        match = ADMISSION_LINE.match(admission)
        if match is None:
            failures.append(f"unparseable admission line: {admission}")
        else:
            admitted = int(match.group("admitted"))
            if admitted == 0:
                failures.append("no pairs admitted — the chaos run served "
                                "nothing")

    for line in lines:
        if not line.startswith("resilience:"):
            continue
        match = RESILIENCE_LINE.match(line)
        if match is None:
            failures.append(f"unparseable resilience line: {line}")
            break
        failed = int(match.group("failed"))
        if admitted > 0 and failed > args.max_failed_frac * admitted:
            failures.append(
                f"{failed} failed pairs of {admitted} admitted exceeds the "
                f"{args.max_failed_frac:.0%} budget")
        break

    for failure in failures:
        print(f"FAIL [{args.log}]: {failure}", file=sys.stderr)
    if not failures:
        print(f"ok: {args.log} passes chaos validation "
              f"(expected: {', '.join(args.expect) or 'base lines only'})")
    return 1 if failures else 0


def deterministic_lines(path: str) -> list[str]:
    return [line for line in read_lines(path)
            if line.startswith(DETERMINISTIC_PREFIXES)]


def determinism(args: argparse.Namespace) -> int:
    a, b = deterministic_lines(args.log_a), deterministic_lines(args.log_b)
    if not a:
        print(f"FAIL: {args.log_a} has no deterministic summary lines",
              file=sys.stderr)
        return 1
    if a == b:
        print(f"ok: {len(a)} deterministic lines identical across "
              f"{args.log_a} and {args.log_b}")
        return 0
    print(f"FAIL: same-seed chaos runs diverged "
          f"({args.log_a} vs {args.log_b})", file=sys.stderr)
    for i in range(max(len(a), len(b))):
        want = a[i] if i < len(a) else "<missing>"
        got = b[i] if i < len(b) else "<missing>"
        if want != got:
            print(f"  run a: {want}\n  run b: {got}", file=sys.stderr)
    return 1


def masked_records(path: str) -> list[str]:
    records = []
    for i, raw in enumerate(read_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as err:
            print(f"{path}:{i}: not JSON: {err}", file=sys.stderr)
            sys.exit(2)
        for key in MASKED_KEYS & record.keys():
            record[key] = 0
        records.append(json.dumps(record, sort_keys=True))
    return records


def jsonl_determinism(args: argparse.Namespace) -> int:
    a, b = masked_records(args.jsonl_a), masked_records(args.jsonl_b)
    if not a:
        print(f"FAIL: {args.jsonl_a} holds no records", file=sys.stderr)
        return 1
    if a == b:
        print(f"ok: {len(a)} masked jsonl records identical across "
              f"{args.jsonl_a} and {args.jsonl_b}")
        return 0
    print(f"FAIL: same-seed sweep runs diverged "
          f"({args.jsonl_a} vs {args.jsonl_b})", file=sys.stderr)
    for i in range(max(len(a), len(b))):
        want = a[i] if i < len(a) else "<missing>"
        got = b[i] if i < len(b) else "<missing>"
        if want != got:
            print(f"  line {i + 1}:\n    run a: {want}\n    run b: {got}",
                  file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)

    p_validate = sub.add_parser("validate", help="structural checks on a log")
    p_validate.add_argument("log")
    p_validate.add_argument("--expect", action="append", default=[],
                            metavar="PREFIX",
                            help="summary line that must be present "
                                 "(resilience, adaptive, mutations)")
    p_validate.add_argument("--max-failed-frac", type=float, default=0.05,
                            help="failed/admitted budget (default 0.05)")
    p_validate.set_defaults(run=validate)

    p_det = sub.add_parser("determinism",
                           help="same-seed runs agree on deterministic lines")
    p_det.add_argument("log_a")
    p_det.add_argument("log_b")
    p_det.set_defaults(run=determinism)

    p_jsonl = sub.add_parser("jsonl-determinism",
                             help="same-seed sweep jsonl records agree")
    p_jsonl.add_argument("jsonl_a")
    p_jsonl.add_argument("jsonl_b")
    p_jsonl.set_defaults(run=jsonl_determinism)

    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
