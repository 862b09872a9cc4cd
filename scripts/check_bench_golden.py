#!/usr/bin/env python3
"""Golden-file checks for the bench binaries themselves.

Three modes, all run from ctest (see CMakeLists.txt):

  jsonl <binary> <produced-file> <golden>
      Runs `<binary> --quick --jsonl --out out` in a scratch directory and
      compares the produced JSONL against the golden, line by line, after
      masking wall-clock-dependent fields (MASKED_KEYS set to 0). Everything
      else — field order, counts, hop/stretch quantiles, double formatting —
      is pinned byte-for-byte through a canonical re-dump.

  traj <binary> <produced-file> <golden>
      Runs `<binary> --quick --jsonl --out out` in a scratch directory and
      compares the produced nav-bench-trajectory-v1 document
      (BENCH_<id>.json, the bench::Harness output) against the golden:
      header fields (schema, key/metric classification, group_by) and every
      cell are pinned after masking the document's own loose_metrics plus
      MASKED_KEYS — i.e. the harness's wall-clock classification drives the
      masking.

  list <binary> <golden>
      Runs `<binary> --benchmark_list_tests` (google-benchmark) and
      compares the output bytes exactly: the registered benchmark names and
      argument grids are the deterministic surface of a timing suite.

Both masked modes read the produced file from the scratch directory's
`out/`, so the goldens also pin that no output (a cell key included)
depends on the --out directory.

Pass --update as the last argument to rewrite the golden from the current
build (then read the diff in review before committing it).

Exit code: 0 on match, 1 on mismatch or execution failure.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

# The --out directory every masked-mode run writes into, inside its scratch
# directory.
OUT_DIR = "out"

# Wall-clock observations: masked before comparison. The demand, the routes,
# and their quantiles stay pinned.
MASKED_KEYS = {
    "seconds",
    "routes_per_sec",
    "sojourn_ms_p50",
    "sojourn_ms_p95",
    "sojourn_ms_p99",
    "peak_queued_pairs",
    "blocked_submits",
}


def canonicalise(text):
    """Masks MASKED_KEYS and re-dumps each JSONL line canonically."""
    lines = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        record = json.loads(raw)
        for key in MASKED_KEYS & record.keys():
            record[key] = 0
        lines.append(json.dumps(record, separators=(", ", ": ")))
    return lines


def canonicalise_traj(text):
    """One line per trajectory-document header field and per masked cell."""
    doc = json.loads(text)
    masked = MASKED_KEYS | set(doc.get("loose_metrics", []))
    lines = []
    for key in ("schema", "bench", "id", "quick", "group_by", "key_fields",
                "metrics", "loose_metrics"):
        lines.append(f"{key}: {json.dumps(doc.get(key))}")
    for cell in doc.get("cells", []):
        for key in masked & cell.keys():
            cell[key] = 0
        lines.append(json.dumps(cell, separators=(", ", ": ")))
    return lines


def diff_lines(produced_name, golden_path, produced, golden):
    if produced == golden:
        print(f"ok: {produced_name} matches {golden_path} "
              f"({len(produced)} lines)")
        return 0
    print(f"FAIL: {produced_name} diverges from {golden_path}",
          file=sys.stderr)
    for i in range(max(len(produced), len(golden))):
        want = golden[i] if i < len(golden) else "<missing>"
        got = produced[i] if i < len(produced) else "<missing>"
        if want != got:
            print(f"line {i + 1}:\n  golden:   {want}\n  produced: {got}",
                  file=sys.stderr)
    return 1


def run_masked(binary, produced_name, golden_path, update, canonicaliser):
    with tempfile.TemporaryDirectory() as scratch:
        result = subprocess.run(
            [str(pathlib.Path(binary).resolve()), "--quick", "--jsonl",
             "--out", OUT_DIR],
            cwd=scratch, capture_output=True, text=True)
        if result.returncode != 0:
            print(f"FAIL: {binary} exited {result.returncode}\n"
                  f"{result.stderr}", file=sys.stderr)
            return 1
        produced_file = pathlib.Path(scratch) / OUT_DIR / produced_name
        if not produced_file.exists():
            print(f"FAIL: {binary} did not write {produced_name}",
                  file=sys.stderr)
            return 1
        produced = canonicaliser(produced_file.read_text())

    golden_file = pathlib.Path(golden_path)
    if update:
        golden_file.parent.mkdir(parents=True, exist_ok=True)
        golden_file.write_text("\n".join(produced) + "\n")
        print(f"updated {golden_path} ({len(produced)} lines)")
        return 0
    # jsonl goldens re-canonicalise idempotently (each line is JSON); traj
    # goldens are already the canonical line format, so compare raw lines.
    golden = (canonicalise(golden_file.read_text())
              if canonicaliser is canonicalise
              else golden_file.read_text().splitlines())
    return diff_lines(produced_name, golden_path, produced, golden)


def run_list(binary, golden_path, update):
    result = subprocess.run([binary, "--benchmark_list_tests"],
                            capture_output=True, text=True)
    if result.returncode != 0:
        print(f"FAIL: {binary} exited {result.returncode}\n{result.stderr}",
              file=sys.stderr)
        return 1
    golden_file = pathlib.Path(golden_path)
    if update:
        golden_file.parent.mkdir(parents=True, exist_ok=True)
        golden_file.write_text(result.stdout)
        print(f"updated {golden_path}")
        return 0
    if result.stdout == golden_file.read_text():
        print(f"ok: benchmark list matches {golden_path}")
        return 0
    print(f"FAIL: benchmark list diverges from {golden_path}\n"
          f"got:\n{result.stdout}", file=sys.stderr)
    return 1


def main():
    args = sys.argv[1:]
    update = "--update" in args
    if update:
        args.remove("--update")
    if len(args) == 4 and args[0] == "jsonl":
        return run_masked(args[1], args[2], args[3], update, canonicalise)
    if len(args) == 4 and args[0] == "traj":
        return run_masked(args[1], args[2], args[3], update,
                          canonicalise_traj)
    if len(args) == 3 and args[0] == "list":
        return run_list(args[1], args[2], update)
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
