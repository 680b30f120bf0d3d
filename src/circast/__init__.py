"""Circulant association schemes on triples.

Construction and verification of schemes over {0, ..., n-1} whose nontrivial
relations are closed under the simultaneous +1 shift, via their index-set
form: partitions of the pair universe X(n). Includes the general axiom
checker for triple partitions, thinness analysis with perfect-matching
decomposition, permutation-group orbit constructions, and an exhaustive
search for AST-regular partitions at small n.
"""

from .astcheck import (
    ASTReport,
    AxiomFailure,
    IdentityViolation,
    StructureTensor,
    derived_parameters,
    symmetrise,
    verify_a1,
    verify_a2,
    verify_a3,
    verify_ast,
)
from .circulant import (
    CYCLE123,
    CYCLE132,
    IDENTITY,
    SWAP12,
    SWAP13,
    SWAP23,
    SYM3,
    SYM3_NAME,
    ASTRegularityReport,
    EmptyIndexSet,
    NonConstant,
    NotASTRegular,
    NotCirculant,
    NotCirculantAST,
    NotNontrivial,
    RegularityReport,
    build_ast,
    circulant_structure_constant,
    expand,
    expand_partition,
    extract,
    extract_partition,
    is_ast_regular,
    is_circulant,
    pair_image,
    permute_triple,
    regularity_stats,
    sym3_image,
)
from .core import (
    CircastError,
    DomainTooSmall,
    IndexPartition,
    Pair,
    PairSet,
    TernaryRelation,
    Triple,
    TriplePartition,
    make_domain,
    pair_capacity,
    trivial_relations,
    verify_trivial,
)
from .groups import (
    GroupSpec,
    MalformedCycles,
    NotPrime,
    Permutation,
    agl1,
    cycles_string,
    orbit_partition_on_triples,
    parse_cycles,
    shift_invariance_check,
)
from .search import (
    SearchConfig,
    SearchHit,
    SearchResult,
    dedupe_multiplier,
    search_ast_regular,
)
from .thin import (
    NotRegular,
    NotThin,
    ThinWitness,
    matching_decomposition,
    thin_profile,
    thin_relation,
    thin_witness,
)

__version__ = "0.1.0"
