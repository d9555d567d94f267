"""Minimal universal permutations (superpatterns) for layered permutations.

Core permutation operations, the layered class with its greedy containment
rule, the minimal-length table and recursive construction, the layerizing
transform, and an exhaustive search engine with reproducible reports.
"""

from .classes import ClassTag, catalan, class_count, enumerate_class, in_class
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DuplicateValueError,
    InternalDefectError,
    InvalidEmbeddingError,
    NonIntegerTokenError,
    PermutationError,
    ValueOutOfRangeError,
)
from .layered import (
    LayerProfile,
    composition_at_rank,
    composition_count,
    enumerate_layered,
    greedy_layer_indices,
    layer_profile,
    layered_contains,
    parse_profile,
    realize,
)
from .perms import (
    EMPTY,
    Embedding,
    Permutation,
    contains,
    decreasing,
    direct_sum,
    parse,
    pattern_of,
)
from .search import (
    Claims231Report,
    Conjecture321Report,
    InfeasibleReport,
    SearchReport,
    check_claims_231,
    check_conjecture_321,
    minimal_superpattern,
)
from .universal import (
    LengthTable,
    UniversalityReport,
    build_universal,
    layerize,
    max_decreasing_subsequence,
    superpattern_length,
    superpattern_length_closed,
    superpattern_split,
    verify_universal,
)

__version__ = "0.1.0"
