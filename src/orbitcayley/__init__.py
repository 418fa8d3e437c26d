"""Orbit Cayley graphs over Z2^n: exact spectra, strong-regularity certification, census."""

from .core import ConsistencyError, OrbitIndexSet
from .graph6 import export_graph6
from .identities import IDENTITY_IDS, IdentityCheck, mod4_binomial_sum, verify_all
from .spectrum import (
    DistinctSpectrum,
    Spectrum,
    character_sum_row,
    distinct,
    full_spectrum,
    wht_spectrum,
)
from .srg import (
    FAMILIES,
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    certify,
    emit_table1,
    match_families,
)

__all__ = [
    "ConsistencyError",
    "DistinctSpectrum",
    "FAMILIES",
    "IDENTITY_IDS",
    "IdentityCheck",
    "OrbitIndexSet",
    "Spectrum",
    "SrgParams",
    "SrgVerdict",
    "VerdictStatus",
    "certify",
    "character_sum_row",
    "distinct",
    "emit_table1",
    "export_graph6",
    "full_spectrum",
    "match_families",
    "mod4_binomial_sum",
    "verify_all",
    "wht_spectrum",
]

__version__ = "0.1.0"
