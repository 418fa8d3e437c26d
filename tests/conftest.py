"""Shared fixtures: the exhaustive small-dimension sweep reused across suites."""

from __future__ import annotations

import pytest

from orbitcayley.core import OrbitIndexSet
from orbitcayley.srg import _tagged

from oracles import route_verdict


@pytest.fixture(scope="session")
def small_sweep():
    """All nonempty index sets with n <= 8, with each route's tagged verdict.

    The entries are (set, pair-count verdict, spectral verdict, dense
    verdict), each read from its own route by ``route_verdict``, not from
    ``certify``, so a test can compare them.
    """
    out = {}
    for n in range(1, 9):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            routes = ("pair_count", "spectral", "explicit")
            out[(n, mask)] = (s, *(_tagged(s, route_verdict(s, route)) for route in routes))
    return out
