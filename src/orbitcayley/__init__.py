"""Orbit Cayley graphs over Z2^n: exact spectra, strong-regularity certification, census."""

from .census import CensusRecord, census
from .core import (
    ConsistencyError,
    Gf2Vector,
    OrbitIndexSet,
    ResidueFamily,
    binom,
    expand_family,
    is_connected,
)
from .graph6 import decode_graph6, export_graph6
from .identities import (
    IDENTITY_IDS,
    IdentityCheck,
    identity_sides,
    mod4_binomial_sum,
    verify_all,
)
from .spectrum import (
    DistinctSpectrum,
    Spectrum,
    character_sum_row,
    distinct,
    eigenvalue,
    full_spectrum,
    orbit_character_sum,
    wht_spectrum,
)
from .srg import (
    FAMILIES,
    SrgParams,
    SrgVerdict,
    VerdictStatus,
    certify,
    emit_table1,
    family_construct,
    match_families,
    pair_count,
    srg_check_explicit,
    srg_check_paircount,
    srg_check_spectral,
)

__all__ = [
    "CensusRecord",
    "ConsistencyError",
    "DistinctSpectrum",
    "FAMILIES",
    "Gf2Vector",
    "IDENTITY_IDS",
    "IdentityCheck",
    "OrbitIndexSet",
    "ResidueFamily",
    "Spectrum",
    "SrgParams",
    "SrgVerdict",
    "VerdictStatus",
    "binom",
    "census",
    "certify",
    "character_sum_row",
    "decode_graph6",
    "distinct",
    "eigenvalue",
    "emit_table1",
    "expand_family",
    "export_graph6",
    "family_construct",
    "full_spectrum",
    "identity_sides",
    "is_connected",
    "match_families",
    "mod4_binomial_sum",
    "orbit_character_sum",
    "pair_count",
    "srg_check_explicit",
    "srg_check_paircount",
    "srg_check_spectral",
    "verify_all",
    "wht_spectrum",
]

__version__ = "0.1.0"
