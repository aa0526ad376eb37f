"""Run-to-run spread of the end-to-end metrics, measured the way the gate does.

    python3 perfbench/spread.py --workload scene-large --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and reports for
each end-to-end metric the median of the runs and its spread
(``harness.spread``: interquartile range over the median), next to the
metric's bound. Also reports each run's wall time. Writes the summary to
``<out>/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import spread  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
            "--out", args.out,
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s", flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "wall_s": walls, "metrics": {}}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med, spr = statistics.median(vals), spread(vals)
        summary["metrics"][m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": vals}
        print(f"{m['name']:<18} median {med:>12.6g} {m['unit']:<4} spread {spr} (bound {m['bound']})")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"spread-{args.workload}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
