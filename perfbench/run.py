"""orbitcayley benchmark: three workloads driven through the CLI, timed from outside.

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

Run from the root of a checkout that holds ``src/orbitcayley``.  Each pass of
a workload is a fresh worker process (``worker.py``) that imports the package
and runs the workload's job list through ``orbitcayley.cli.main(argv)``, one
job at a time: a closed loop with one client.  Passes repeat while another
one still fits in ``--seconds``; outputs are checked after each pass, outside
its timed phase.

``--trace 0`` reports the end-to-end metrics, each the median over the run:
``setup_s`` (process start until the package is imported, sampled by extra
set-up-only workers as well), ``wall_s`` (the whole job list) and
``peak_rss_mb`` (the worker's VmHWM).  ``--trace 1`` runs one
untraced and one traced pass and reports per-layer span statistics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is then 0, also
when a job failed.  When no result can be made (no ``src/orbitcayley``, a
worker that crashes or overruns) the exit code is not 0 and no result is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output
from tracer import COUNTER_UNITS, SPAN_NAMES, aggregate
from workloads import INPUT_SIZES, WORKLOADS, index_sets_in, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170  # the whole run; a hung worker is killed before this
SETUP_PROBES = 6  # set-up-only workers, on top of one sample per pass

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SPAN_STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
PER_LAYER_UNITS = {
    **{f"{span}.{stat}": unit for span in SPAN_NAMES for stat, unit in SPAN_STAT_UNITS.items()},
    "spectrum.full_spectrum.calls_per_set": "calls/set",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    **COUNTER_UNITS,
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Run:
    """Worker processes of one benchmark run, under one deadline."""

    def __init__(self, workload: str, jobs: list[dict]) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.jobs_file = self.dir / "jobs.json"
        self.out_dir = self.dir / "out"
        self.result_file = self.dir / "result.json"
        self.jobs = jobs
        self.verified: dict[int, str] = {}  # job index -> sha256 of a checked output

    def __enter__(self) -> Run:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.jobs_file.write_text(json.dumps(self.jobs))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return remaining

    def spawn(self, *args: str) -> float:
        """Run one worker to completion; return its set-up time."""
        env = dict(os.environ)
        env.pop("ORBITCAYLEY_OUT_DIR", None)  # outputs go to absolute paths
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - started
            proc.communicate(timeout=self._remaining())
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode} ({' '.join(args)})")
        return setup

    def run_pass(self, trace: bool) -> tuple[float, dict]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        self.result_file.unlink(missing_ok=True)
        args = ["--jobs", str(self.jobs_file), "--out-dir", str(self.out_dir),
                "--result", str(self.result_file)]
        setup = self.spawn(*args, *(["--trace"] if trace else []))
        return setup, json.loads(self.result_file.read_text())

    def check_pass(self, result: dict) -> int:
        """Failed jobs of a pass: non-zero exit code or wrong output.

        An output byte-identical to one already checked for the same job
        is not decoded again.
        """
        failed = 0
        for i, (job, run) in enumerate(zip(self.jobs, result["runs"], strict=True)):
            path = self.out_dir / job["out"]
            problem = f"exit code {run['rc']}" if run["rc"] != 0 else None
            if problem is None:
                digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
                if digest is None or self.verified.get(i) != digest:
                    problem = check_output(job, path)
                    if problem is None:
                        self.verified[i] = digest
            if problem is not None:
                failed += 1
                print(f"FAILED: orbitcayley {' '.join(job['argv'])}: {problem}", file=sys.stderr)
        return failed


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref.removeprefix("ref: ")
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_record(workload: str, seed: int, jobs: list[dict], worker_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        **worker_info,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "input_size": INPUT_SIZES[workload],
        "load": "closed loop, 1 client: jobs in sequence in one worker process per pass",
        "jobs": ["orbitcayley " + " ".join(job["argv"]) for job in jobs],
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def measure(run: Run, seconds: int) -> tuple[dict, int, int, dict]:
    setups = [run.spawn("--setup-only") for _ in range(SETUP_PROBES)]
    passes, failed = [], 0
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        setup, result = run.run_pass(trace=False)
        failed += run.check_pass(result)
        setups.append(setup)
        passes.append(result)
        now = time.monotonic()
        if now - started + (now - pass_started) > seconds:
            break
    samples = {
        "setup_s": setups,
        "wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    for name, values in samples.items():
        print(f"{name:12s} {statistics.median(values):10.4f} {END_TO_END_UNITS[name]:3s} "
              f"median ({_quartiles(values)})")
    for i, job in enumerate(run.jobs):
        job_s = statistics.median(p["runs"][i]["seconds"] for p in passes)
        print(f"  {job_s:9.4f} s median  orbitcayley {' '.join(job['argv'])[:90]}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, len(passes) * len(run.jobs), failed, passes[0]["machine"]


def measure_traced(run: Run) -> tuple[dict, int, int, dict]:
    _, plain = run.run_pass(trace=False)
    failed = run.check_pass(plain)
    _, traced = run.run_pass(trace=True)
    failed += run.check_pass(traced)
    dump = traced["trace"]
    agg = aggregate(dump)
    metrics = {
        f"{span}.{stat}": value
        for span, row in agg["stats"].items()
        for stat, value in row.items()
    }
    sets = index_sets_in(run.jobs)
    metrics["spectrum.full_spectrum.calls_per_set"] = (
        agg["stats"]["spectrum.full_spectrum"]["calls"] / sets
    )
    metrics["trace.unattributed_s"] = traced["wall_s"] - agg["top_level_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics.update(dump["counters"])
    print(f"traced wall {traced['wall_s']:.4f} s, untraced wall {plain['wall_s']:.4f} s, "
          f"{len(dump['spans'])} spans, {sets} index sets")
    print("absent spans (no such function; reported as 0): "
          + (", ".join(dump["absent"]) or "none"))
    print("waiting time: none to report; one process runs one job at a time, "
          "with no queue and no other process")
    for name in SPAN_NAMES:
        row = agg["stats"][name]
        if row["calls"]:
            print(f"  {name:40s} calls {row['calls']:8d}  total {row['total_s']:9.4f} s  "
                  f"self {row['self_s']:9.4f} s")
    return metrics, 2 * len(run.jobs), failed, traced["machine"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbitcayley" / "__init__.py").is_file():
        print(f"error: no orbitcayley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed)
    try:
        with Run(args.workload, jobs) as run:
            if args.trace:
                metrics, attempted, failed, info = measure_traced(run)
                units = PER_LAYER_UNITS
            else:
                metrics, attempted, failed, info = measure(run, args.seconds)
                units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"jobs {attempted}, failed {failed}, error_rate {failed / attempted} fraction")
    print("machine " + json.dumps(machine_record(args.workload, args.seed, jobs, info)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
