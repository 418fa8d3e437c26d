"""Job lists of the three benchmark workloads.

A job is one ``orbitcayley`` command line (without ``--out``), the name of
the file it writes, and how the benchmark checks that file.  The workload
seed only picks index sets; the program sees nothing but the generated
``--set`` strings.

Seeded sets take one index from each pair {2j-1, 2j}, so they hold n // 2
indices whose sum varies by at most n // 2 between seeds.  The closed forms
cost O(|I|^2 n) for pair counts and about O(n sum(I)) for the binomial
spectrum, and the transform indicator O(|I| 2^n), so the work per job stays
the same across seeds.  Sets without an odd index below n are redrawn: the
graph must be connected, so no checker returns early on the gate.
"""

from __future__ import annotations

import random

# s0s1@4m at m=3: the weights congruent to 0 or 1 mod 4 in 1..12.
FAMILY_SET_N12 = "n=12;I=1,4,5,8,9,12"

CLOSED_FORM_NS = (96, 128, 160, 200)


def seeded_set(rng: random.Random, n: int) -> str:
    """A connected, non-complete index set of size n // 2 in ``n=..;I=..`` form."""
    while True:
        indices = [2 * j - 1 + rng.randrange(2) for j in range(1, n // 2 + 1)]
        if any(i % 2 == 1 and i < n for i in indices):
            return f"n={n};I=" + ",".join(map(str, indices))


def _job(argv: list[str], out: str, check: str, **detail) -> dict:
    return {"argv": argv, "out": out, "check": check, **detail}


def _census(rng: random.Random) -> list[dict]:
    # exhaustive, so the seed is unused
    return [_job(["census", "--n", "1..12"], "census.jsonl", "census_sha256", records=8178)]


def _dense(rng: random.Random) -> list[dict]:
    sets12 = [FAMILY_SET_N12] + [seeded_set(rng, 12) for _ in range(4)]
    jobs = [
        _job(["srg-check", "--set", s, "--explicit"], f"srg_{i}.json", "srg_verdict", set=s)
        for i, s in enumerate(sets12)
    ]
    jobs += [
        _job(["export", "--set", s], f"export_{i}.g6", "graph6", set=s)
        for i, s in enumerate(sets12 + [seeded_set(rng, 14)])
    ]
    jobs += [
        _job(["spectrum", "--set", s, "--check-oracle"], f"spectrum_{i}.json", "spectrum", set=s)
        for i, s in enumerate(seeded_set(rng, 22) for _ in range(2))
    ]
    return jobs


def _closed_form(rng: random.Random) -> list[dict]:
    jobs = [
        _job(["identities", "--max-m", "30"], "identities.csv", "identities_csv"),
        _job(["families", "--m-max", "16", "--check-cap", "66"], "families.csv",
             "families_csv", rows=16 * 6),
    ]
    for n in CLOSED_FORM_NS:
        s = seeded_set(rng, n)
        jobs.append(_job(["srg-check", "--set", s], f"srg_n{n}.json", "srg_verdict", set=s))
    return jobs


_JOB_LISTS = {"census": _census, "dense": _dense, "closed-form": _closed_form}
WORKLOADS = tuple(_JOB_LISTS)

INPUT_SIZES = {
    "census": "all 8178 nonempty index sets for n = 1..12, dense route for n <= 8",
    "dense": "srg-check --explicit on 5 sets at n=12; export of those 5 and 1 set at n=14; "
             "spectrum --check-oracle on 2 sets at n=22",
    "closed-form": "identities to m=30; families to m=16 (n <= 66); "
                   "srg-check on 1 set at each n in 96, 128, 160, 200",
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    return _JOB_LISTS[workload](random.Random(seed))


def index_sets_in(jobs: list[dict]) -> int:
    """Index sets the job list certifies or reports, the base of calls-per-set ratios."""
    total = 0
    for job in jobs:
        if "set" in job:
            total += 1
        else:
            total += job.get("records", 0) + job.get("rows", 0)
    return total
