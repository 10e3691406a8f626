"""Equivalence of D/U words under the relation DU - UD = 1.

Decision procedures, canonical forms, class enumeration and sizing, rook
boards and finite-field cross-checks, directed-percolation series, and the
corresponding questions in the three-parameter deformed algebra.
"""

from .downup import DownUpElement, DownUpParams, du_equivalent, du_normal_order, is_normal_monomial
from .enumeration import (
    brute_force_class_counts,
    count_classes,
    count_classes_cdyck,
    count_table,
    is_cdyck,
    total_classes,
    total_classes_cdyck,
)
from .equivalence import (
    EquivSignature,
    canonical_form,
    equivalent,
    is_up_normal,
    signature,
    up_normal_form,
)
from .errors import DomainError, ParseError, ResourceLimitError
from .percolation import column_sites, column_states, mean_size_series, wet_probability
from .rewrite import (
    EquivClass,
    Move,
    class_size,
    equivalence_class,
    irreducible_factorization,
    neighbors,
)
from .weyl import (
    FerrersBoard,
    MonomialAction,
    WeylElement,
    apply_to_monomial,
    ferrers_board,
    matrix_rank_counts,
    navon_expand,
    normal_order,
    rook_equivalent,
    rook_numbers,
    tensor_equivalent,
)
from .words import (
    LaurentPoly,
    final_height,
    height_polys,
    is_balanced,
    is_falling,
    is_rising,
    omega,
    parse_word,
    prefix_heights,
    reading_word,
    standard_path,
)

__all__ = [
    "DomainError",
    "DownUpElement",
    "DownUpParams",
    "EquivClass",
    "EquivSignature",
    "FerrersBoard",
    "LaurentPoly",
    "MonomialAction",
    "Move",
    "ParseError",
    "ResourceLimitError",
    "WeylElement",
    "apply_to_monomial",
    "brute_force_class_counts",
    "canonical_form",
    "class_size",
    "column_sites",
    "column_states",
    "count_classes",
    "count_classes_cdyck",
    "count_table",
    "du_equivalent",
    "du_normal_order",
    "equivalence_class",
    "equivalent",
    "ferrers_board",
    "final_height",
    "height_polys",
    "irreducible_factorization",
    "is_balanced",
    "is_cdyck",
    "is_falling",
    "is_normal_monomial",
    "is_rising",
    "is_up_normal",
    "matrix_rank_counts",
    "mean_size_series",
    "navon_expand",
    "neighbors",
    "normal_order",
    "omega",
    "parse_word",
    "prefix_heights",
    "reading_word",
    "rook_equivalent",
    "rook_numbers",
    "signature",
    "standard_path",
    "tensor_equivalent",
    "total_classes",
    "total_classes_cdyck",
    "up_normal_form",
    "wet_probability",
]

__version__ = "0.1.0"
