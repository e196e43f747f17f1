"""Exact arithmetic and experiment harness for Mobius-function statistics
over polynomial rings F_q[T]."""

from .arith import (
    SingularSeriesApprox,
    euler_phi,
    inverse_mod,
    jacobi,
    jacobi_oracle,
    mobius,
    mobius_oracle,
    mobius_pellet,
    singular_series,
    von_mangoldt,
)
from .characters import (
    AdditiveCharacter,
    DirichletCharacter,
    ResidueRing,
    additive_character,
    c_sum,
    characters_mod,
    jacobi_character,
    kloosterman,
    quadratic_character_mod,
    rational_kloosterman_aggregate,
    residue_ring,
)
from .decomposition import (
    DecompositionCheck,
    DecompositionData,
    decompose,
    derivative_class,
    derivative_class_rep,
    principal_implies_square,
    verify_decomposition,
)
from .errors import DegenerateClassError, ResourceLimitError
from .factor import (
    Factorization,
    divisor_count,
    divisors,
    factor,
    irreducibles,
    is_irreducible,
    rad,
    rad1,
)
from .field import FieldCtx, field_new
from .poly import (
    Poly,
    discriminant,
    ext_gcd,
    format_poly,
    gcd,
    is_squarefree,
    monics,
    parse_poly,
    poly_index,
    polys_below,
    resultant,
)
from .report import ExperimentReport

__version__ = "0.1.0"
