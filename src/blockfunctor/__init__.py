"""Exact desk-scale engine for normalizer-pair classification,
multiplicity tables of simple summands, and stable/functorial
equivalence verdicts between one-block permutation groups."""

from .autos import (
    MarkedPair,
    find_group_isomorphism,
    find_pair_isomorphism,
)
from .chartab import CharacterTable, character_table, class_counts, fixed_point_dim
from .ddelta import (
    ClassMember,
    NormalizerPair,
    PairClass,
    PairClassRegistry,
    image_of_normalizer,
    pair_orbit_reps,
)
from .errors import (
    BlockfunctorError,
    DomainError,
    GroupFileError,
    InternalCheckError,
    SizeBoundError,
    UsageError,
)
from .fusion import (
    ClassCheck,
    FusionData,
    TripleOrbit,
    build_fusion,
    frobenius_structure,
    psi_pair,
    triple_orbits,
    verify_class,
)
from .grpfile import GroupSpecFile, LoadedGroup, load_group, parse_group_file
from .multiplicity import (
    EquivalenceVerdict,
    MultiplicityTable,
    compare,
    cross_check_formulas,
    invariants_kl,
    l_multiplicativity_check,
    mult_table_fusion,
    mult_table_pairs,
)
from .permgroup import (
    PermGroup,
    direct_product,
    frobenius_group,
    normalizer,
    p_subgroup_classes,
    quotient_group,
    sylow_subgroup,
)
from .permutation import Permutation, conjugate

__version__ = "0.1.0"

__all__ = [
    "BlockfunctorError",
    "CharacterTable",
    "ClassCheck",
    "ClassMember",
    "DomainError",
    "EquivalenceVerdict",
    "FusionData",
    "GroupFileError",
    "GroupSpecFile",
    "InternalCheckError",
    "LoadedGroup",
    "MarkedPair",
    "MultiplicityTable",
    "NormalizerPair",
    "PairClass",
    "PairClassRegistry",
    "PermGroup",
    "Permutation",
    "SizeBoundError",
    "TripleOrbit",
    "UsageError",
    "build_fusion",
    "character_table",
    "class_counts",
    "compare",
    "conjugate",
    "cross_check_formulas",
    "direct_product",
    "find_group_isomorphism",
    "find_pair_isomorphism",
    "fixed_point_dim",
    "frobenius_group",
    "frobenius_structure",
    "image_of_normalizer",
    "invariants_kl",
    "l_multiplicativity_check",
    "load_group",
    "mult_table_fusion",
    "mult_table_pairs",
    "normalizer",
    "p_subgroup_classes",
    "pair_orbit_reps",
    "parse_group_file",
    "psi_pair",
    "quotient_group",
    "sylow_subgroup",
    "triple_orbits",
    "verify_class",
]
