"""movcat: a finite-category toolkit for movability, domination, and
inverse-system conditions, driven by a text DSL and a CLI."""

from .builders import (
    add_initial_object,
    build_monoid_category,
    build_poset_category,
    canonical_category,
    coslice_category,
    elements_category,
    product_category,
    representable_copresheaf,
)
from .campaign import (
    CampaignReport,
    THEOREMS,
    evaluate_instance,
    generate_campaign_instance,
    run_campaign,
)
from .core import (
    Copresheaf,
    FiniteCategory,
    FinitePoset,
    Functor,
    NaturalTransformation,
    compose_functors,
    identity_functor,
    identity_nat_trans,
    make_poset,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from .dsl import Document, make_category_entity, parse_document, serialize_document
from .errors import (
    ConeIncompatible,
    DslSyntaxError,
    InvalidCopresheaf,
    MovcatError,
    NoDesignatedCoproducts,
    NotAMonoid,
    ParamsOutOfRange,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UniversalPropertyFails,
    UnknownTheorem,
    UnresolvedReference,
    ValidationFailed,
    VerificationFailed,
)
from .generators import GenParams, generate_instance
from .movability import (
    Counterexample,
    MovabilityWitness,
    check_movable_wrt,
    check_strongly_movable,
    factor_transport,
    postcompose_transfer,
    product_transport,
    space_movability,
    weak_domination_transfer,
    witness_valid,
    witness_valid_wrt,
)
from .search import (
    CoproductDesignation,
    coproduct_coslice_domination,
    enumerate_functors,
    enumerate_nat_trans,
    find_functorial_domination,
    find_weak_domination,
    validate_designation,
)
from .systems import (
    AssociatedReport,
    InverseSystem,
    SystemCone,
    check_associated,
    check_sm1,
    check_sm2,
    check_star,
    cone_compatible,
    make_cone,
    validate_system,
)

__version__ = "0.1.0"
