"""Exact isotypical decomposition of finite abelian group actions.

An abelian variety with an action of a finite abelian group G decomposes,
up to isogeny, into isotypical components indexed by the irreducible
rational representations of G.  This package models the variety by its
rational representation and computes that decomposition in exact rational
arithmetic: no floats, no numerical tolerance, every result certified by
independent internal cross-checks.

Names that have left the API, and where their work went (most live on as
test oracles in ``tests/oracles.py``), are listed in ``CHANGES.md``.
"""

from .abgroup import FinAbGroup, GroupElement, Subgroup, all_subgroups
from .action import (
    GAction,
    IsotypicalComponent,
    IsotypicalReport,
    action_matrix,
    complementary_subvariety,
    fixed_subvariety,
    isotypical_component,
    isotypical_decomposition,
    validate_action,
)
from .actionfile import (
    ActionFile,
    load_action_file,
    serialize_action_file,
)
from .chars import (
    Character,
    RationalIrrep,
    char_kernel,
    irrep_model,
    ramanujan_sum,
    rational_irreps,
)
from .errors import InternalCheckError, PreconditionError, ValidationError
from .fixtures import FIXTURE_KINDS, FixtureSpec, make_fixture
from .qalgebra import (
    GroupAlgebraElem,
    averaging_idempotent,
    central_idempotent,
    product_formula_idempotent,
)
from .ratlinalg import (
    MatQ,
    MatZ,
    SubspaceQ,
    companion_matrix,
    cyclotomic,
    image_space,
    intersect_spaces,
    kernel_space,
    restrict_operator,
    snf_invariants,
)
from .roan import (
    RoanMatchReport,
    RoanReport,
    roan_decomposition,
    verify_roan_matching,
)

__version__ = "1.0.0"

__all__ = [
    "FinAbGroup",
    "GroupElement",
    "Subgroup",
    "all_subgroups",
    "Character",
    "RationalIrrep",
    "char_kernel",
    "rational_irreps",
    "ramanujan_sum",
    "irrep_model",
    "GroupAlgebraElem",
    "averaging_idempotent",
    "central_idempotent",
    "product_formula_idempotent",
    "GAction",
    "validate_action",
    "action_matrix",
    "fixed_subvariety",
    "complementary_subvariety",
    "isotypical_component",
    "isotypical_decomposition",
    "IsotypicalComponent",
    "IsotypicalReport",
    "roan_decomposition",
    "verify_roan_matching",
    "RoanReport",
    "RoanMatchReport",
    "ActionFile",
    "load_action_file",
    "serialize_action_file",
    "FixtureSpec",
    "make_fixture",
    "FIXTURE_KINDS",
    "MatQ",
    "MatZ",
    "SubspaceQ",
    "kernel_space",
    "image_space",
    "intersect_spaces",
    "snf_invariants",
    "cyclotomic",
    "companion_matrix",
    "restrict_operator",
    "ValidationError",
    "PreconditionError",
    "InternalCheckError",
    "__version__",
]
