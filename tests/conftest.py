"""Shared fixtures: the exhaustive small-dimension sweep reused across suites."""

from __future__ import annotations

import pytest

from orbitcayley.core import OrbitIndexSet
from orbitcayley.spectrum import full_spectrum
from orbitcayley.srg import _closed_form_verdicts, _explicit_verdict, _tagged


@pytest.fixture(scope="session")
def small_sweep():
    """All nonempty index sets with n <= 8, with each route's tagged verdict.

    The entries are (set, pair-count verdict, spectral verdict, dense
    verdict), each read from its own route, not from ``certify``, so a
    test can compare them.
    """
    out = {}
    for n in range(1, 9):
        for mask in range(1, 1 << n):
            s = OrbitIndexSet.from_bitmask(n, mask)
            closed = _closed_form_verdicts(s, full_spectrum(s))
            out[(n, mask)] = (
                s,
                _tagged(s, closed["pair_count"]),
                _tagged(s, closed["spectral"]),
                _tagged(s, _explicit_verdict(s)),
            )
    return out
