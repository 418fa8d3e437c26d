"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --workloads census,dense,closed-form --seeds 1..10 --seconds 35

Runs ``run.py`` once per (workload, seed), in sequence, and prints per
workload and end-to-end metric the median of the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  That spread must
stay within the metric's bound in BENCHMARK.json.  With ``--out`` the
summary and every run's metrics are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1..10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    }
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v:.4f}" for k, v in runs[-1].items()), flush=True)
        summary[workload] = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        for name, s in summary[workload].items():
            print(f"  {workload:12s} {name:12s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"(bound {bounds.get(name)})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
