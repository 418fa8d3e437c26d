"""The benchmark's own checks: corrupt outputs must count as failures, and
every metric BENCHMARK.json lists must be printed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import orbitcayley.cli  # noqa: E402
from run import Run  # noqa: E402
from workloads import jobs_for  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_and_check(run: Run, job_indices: list[int]) -> None:
    """Write the selected jobs' outputs through the CLI and require them to pass."""
    for i in job_indices:
        job = run.jobs[i]
        assert orbitcayley.cli.main(job["argv"] + ["--out", str(run.out_dir / job["out"])]) == 0
    assert run.check_pass({"runs": [{"rc": 0}] * len(run.jobs)}) == 0


@pytest.fixture
def census_run():
    with Run("selftest-census", jobs_for("census", 1)) as run:
        run.out_dir.mkdir()
        yield run


@pytest.fixture
def export_run():
    jobs = [job for job in jobs_for("dense", 1) if job["check"] == "graph6"][:1]
    with Run("selftest-export", jobs) as run:
        run.out_dir.mkdir()
        yield run


def test_one_changed_census_line_is_a_failed_job(census_run):
    _run_and_check(census_run, [0])
    path = census_run.out_dir / census_run.jobs[0]["out"]
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"connected": true' in line)
    lines[i] = lines[i].replace('"connected": true', '"connected": false')
    path.write_text("".join(lines))
    assert census_run.check_pass({"runs": [{"rc": 0}]}) == 1


def test_one_flipped_graph6_byte_is_a_failed_job(export_run):
    _run_and_check(export_run, [0])
    path = export_run.out_dir / export_run.jobs[0]["out"]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0b000100
    path.write_bytes(bytes(data))
    assert export_run.check_pass({"runs": [{"rc": 0}]}) == 1


def test_non_zero_exit_code_is_a_failed_job(census_run):
    _run_and_check(census_run, [0])
    assert census_run.check_pass({"runs": [{"rc": 1}]}) == 1


def test_function_missing_from_the_package_is_an_absent_row():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import orbitcayley.cli\n"
        "del sys.modules['orbitcayley.identities'].verify_all\n"
        "from tracer import Tracer, aggregate\n"
        "t = Tracer(); t.install()\n"
        "print(t.absent, aggregate(t.dump())['stats']['identities.verify_all'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "['identities.verify_all'] {'calls': 0, 'total_s': 0.0, 'self_s': 0.0}"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_prints_every_listed_metric(trace, section):
    workload = BENCHMARK["workloads"][0]["name"]
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    assert f"error_rate {0 / result['attempted']} fraction" in proc.stdout


def test_without_sources_the_run_fails_and_prints_no_result():
    with Run("selftest-no-sources", []) as run:
        (run.dir / "perfbench").mkdir()
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copyfile(f, run.dir / "perfbench" / f.name)
        shutil.copyfile(ROOT / "BENCHMARK.json", run.dir / "BENCHMARK.json")
        proc = subprocess.run(
            BENCHMARK["command"] + ["--workload", "census", "--seed", "1", "--seconds", "1",
                                    "--trace", "0"],
            cwd=run.dir, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no orbitcayley sources" in proc.stderr
