"""One benchmark for the sync, sim and live query paths.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sync-uniform-10k --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same inputs untraced and traced, checks that
tracing changed no result or counter, and reports the per-layer metrics;
it also writes the spans and a full layer report to ``.perfbench_out/``.
Every run checks the program's outputs and exits nonzero if a check
fails.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--holdout", action="store_true",
        help="use the reserved holdout seed instead of --seed",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Unwind through every finally block, so a live ring is torn down.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    import common

    if args.workload == layers.SYNC:
        import sync_load as workload
    elif args.workload == layers.SIM:
        import sim_load as workload
    else:
        import live_load as workload

    seed = common.HOLDOUT_SEED if args.holdout else args.seed
    outcome = workload.run(seed, args.seconds, bool(args.trace))
    checks = outcome["checks"]
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    if args.trace:
        metrics = emit_layers(args.workload, seed, outcome)
    else:
        metrics = emit_end_to_end(outcome["metrics"])
    for note in outcome["notes"]:
        print(f"note: {note}")
    failed = int(outcome["failed"])
    attempted = int(outcome["attempted"])
    print(f"failed_query_rate {failed / attempted:.6f} ({failed} of {attempted} queries)")
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    if len(checks.failures) > 20:
        print(f"... and {len(checks.failures) - 20} more failed checks")
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


def emit_end_to_end(metrics) -> dict:
    out = {}
    for name, (value, unit, samples, raw) in metrics.values.items():
        count = f"n={samples}" if samples is not None else ""
        wall = f"(raw wall {raw:.4f})" if raw is not None else ""
        print(f"  {name:<24} {value:>14.4f} {unit:<6} {count:<8} {wall}")
        out[name] = {"value": value, "unit": unit}
    return out


def emit_layers(workload: str, seed: int, outcome: dict) -> dict:
    values = outcome["metrics"]
    rows = layers.report(workload, values)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    spans = outcome["tracer"].write(f"{stem}-spans.jsonl.gz")
    with open(f"{stem}-layers.json", "w") as handle:
        json.dump(rows, handle, indent=1)
    print(f"  wrote {spans} spans to {stem}-spans.jsonl.gz")
    print(f"  wrote the layer report to {stem}-layers.json")
    out = {}
    for name, row in rows.items():
        value = row["value"]
        shown = "n/a" if value is None else f"{value:.4f}"
        mark = "" if row["declared"] else " (report only)"
        print(f"  {name:<44} {shown:>12} {row['unit']:<6}{mark}")
        if row["declared"]:
            out[name] = {"value": float(value), "unit": row["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
