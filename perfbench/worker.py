"""One timed pass of a workload, in its own process.

Imports orbitcayley from the checkout's ``src``, writes ``ready`` to stdout
(the parent times set-up up to that line), then runs every job through
``orbitcayley.cli.main(argv)`` in-process, one at a time, and writes a JSON
result: per-job exit codes and times, the pass wall time, the peak resident
memory (VmHWM) and, with ``--trace``, the recorded spans.

    python3 perfbench/worker.py --root . --jobs JOBS.json --out-dir DIR --result FILE [--trace]
    python3 perfbench/worker.py --root . --setup-only
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
import traceback
from pathlib import Path


def _import_package(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import orbitcayley.cli  # noqa: F401  (loads every layer the jobs use)

    imported = Path(sys.modules["orbitcayley"].__file__).resolve()
    if src not in imported.parents:
        raise SystemExit(f"orbitcayley was imported from {imported}, not from {src}")


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, when numpy bundles an OpenBLAS it can be asked."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def peak_rss_mb() -> float:
    """VmHWM of this process.

    Not ru_maxrss: Linux carries the pre-exec image's peak, here the parent's
    resident size at fork, over into ru_maxrss.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_jobs(jobs: list[dict], out_dir: Path) -> tuple[list[dict], float]:
    runs = []
    started = time.perf_counter()
    for job in jobs:
        argv = job["argv"] + ["--out", str(out_dir / job["out"])]
        t0 = time.perf_counter()
        try:
            # looked up per call so that trace wrappers installed on the module apply
            rc = sys.modules["orbitcayley.cli"].main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # one broken job must not hide the others' results
            traceback.print_exc()
            rc = -1
        runs.append({"rc": rc, "seconds": time.perf_counter() - t0})
    return runs, time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--jobs", type=Path)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    _import_package(args.root)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    jobs = json.loads(args.jobs.read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs, wall = run_jobs(jobs, args.out_dir)
    result = {
        "runs": runs,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine_info(),
        "trace": tracer.dump() if tracer else None,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
