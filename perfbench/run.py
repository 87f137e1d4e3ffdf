"""Benchmark command: time one workload of the filter service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replan-wal --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON report with the machine
fingerprint, the seed, the workload's sizes and reason, the tail
percentiles and the deterministic counts.  Reports and span files are
written under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"


def _fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": " ".join(platform.python_build()),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no filter service sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(ROOT))

    from perfbench.runner import measure
    from perfbench.workloads import WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = make_inputs(workload, args.seed)
    OUTPUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUTPUT) as workdir:
        report = measure(
            workload, inputs, Path(workdir), args.seconds, bool(args.trace),
            spans_path=OUTPUT / f"spans-{stem}.jsonl",
        )
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in report.pop("metrics").items()
    }
    report.update(
        fingerprint=_fingerprint(),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        workload={"name": workload.name, "why": workload.why, "corpus": workload.corpus,
                  "engine": workload.engine, "sizes": workload.sizes()},
    )
    with open(OUTPUT / f"report-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**report, "metrics": metrics}, handle, indent=2)
    errors = report["errors"]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
