"""Finitely presented group engine: presentations, coset tables of kernels
and of low-index normal subgroups, subgroup presentations, abelianization
and gradient sampling."""

from .presentation import (
    Presentation,
    PresentationError,
    artin_presentation,
    cyclic_reduce,
    free_reduce,
    invert_word,
    parse_presentation,
)
from .coset import CosetTable, EnumerationLimit
from .lowindex import low_index_normal
from .rewrite import (
    AbelianInvariants,
    abelian_invariants,
    d_bounds,
    reidemeister_schreier,
    tietze_simplify,
)
from .snf import SNFResult, smith_normal_form
from .chains import (
    NotHomomorphism,
    RGSample,
    cayley_table,
    kernel_chain_cayley,
    mod_cycle_images,
    psl2z_images,
    rg_sequence,
    samples_to_csv,
    sl2_order,
    sl2z_images,
    trend_summary,
)
from .builtins import TARGET_HINT, builtin_target

__all__ = [
    "AbelianInvariants",
    "CosetTable",
    "EnumerationLimit",
    "NotHomomorphism",
    "Presentation",
    "PresentationError",
    "RGSample",
    "SNFResult",
    "TARGET_HINT",
    "abelian_invariants",
    "artin_presentation",
    "builtin_target",
    "cayley_table",
    "cyclic_reduce",
    "d_bounds",
    "free_reduce",
    "invert_word",
    "kernel_chain_cayley",
    "low_index_normal",
    "mod_cycle_images",
    "parse_presentation",
    "psl2z_images",
    "reidemeister_schreier",
    "rg_sequence",
    "samples_to_csv",
    "sl2_order",
    "sl2z_images",
    "smith_normal_form",
    "tietze_simplify",
    "trend_summary",
]
