"""Turyn-type sequence toolkit.

A Turyn-type quadruple TT(n) consists of four {+1,-1} sequences
(A; B; C; D) of lengths n, n, n, n-1 whose weighted nonperiodic
autocorrelations cancel at every positive lag:

    N_A(s) + N_B(s) + 2 N_C(s) + 2 N_D(s) = 0   for 1 <= s <= n-1.

The package verifies such quadruples, classifies them up to the
natural order-1024 symmetry group, enumerates canonical class
representatives, runs a two-phase boundary/spectral search for large
n, and derives base sequences and T-sequences from any TT(n).
"""

from .codec import CodecError, decode, encode, read_listing, write_listing
from .constructions import (
    BaseSequences,
    TSequences,
    base_to_t,
    tt_to_base,
    verify_base,
    verify_t,
)
from .core import (
    GroupElement,
    all_elements,
    TurynQuad,
    canonicalize,
    g_apply,
    g_mul,
    is_canonical,
    orbit,
    verify_tt,
)
from .enumeration import (
    ClassListing,
    Decomposition,
    FeasibilityError,
    brute_force_classes,
    class_sum_profiles,
    decompositions,
    enumerate_canonical,
    max_initial_zeros,
    realizability_report,
)
from .search import (
    CheckpointError,
    SearchConfig,
    SeedQuad,
    fill_middle,
    generate_seeds,
)
from .seqs import (
    BinarySeq,
    TernarySeq,
    naf_all,
    spectrum_value,
)

__all__ = [
    "BaseSequences",
    "BinarySeq",
    "CheckpointError",
    "ClassListing",
    "CodecError",
    "Decomposition",
    "FeasibilityError",
    "GroupElement",
    "SearchConfig",
    "SeedQuad",
    "TSequences",
    "TernarySeq",
    "TurynQuad",
    "all_elements",
    "base_to_t",
    "brute_force_classes",
    "canonicalize",
    "class_sum_profiles",
    "decode",
    "decompositions",
    "encode",
    "enumerate_canonical",
    "fill_middle",
    "g_apply",
    "g_mul",
    "generate_seeds",
    "is_canonical",
    "max_initial_zeros",
    "naf_all",
    "orbit",
    "read_listing",
    "realizability_report",
    "spectrum_value",
    "tt_to_base",
    "verify_base",
    "verify_t",
    "verify_tt",
    "write_listing",
]

__version__ = "0.1.0"
