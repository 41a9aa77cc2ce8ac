"""Demazure roots, additive group actions on toric varieties, and toricity
of complexity-one torus varieties.

Exact (integer/Fraction) computations throughout; no numerical tolerance
enters anywhere.
"""

from .errors import (  # noqa: F401
    BadIntersection,
    ConeNotInFan,
    CurveMismatch,
    DemazureError,
    DuplicateRay,
    InvalidColoring,
    InvalidDivisor,
    InvalidInteger,
    NegativeBound,
    NoDegreeZeroLND,
    NoRays,
    NotARoot,
    NotAffine,
    NotCoherent,
    NotNilpotent,
    NotNormalized,
    NotProper,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
    UnboundedRegion,
    UnboundedRoots,
    UnknownRay,
    UnsupportedFan,
    WeightEscape,
    WeightOutsideDual,
    ZeroVector,
)
from .lattice import (  # noqa: F401
    Cone,
    dual_description,
    integer_feasible,
    invariant_factors,
    lattice_points,
    primitive,
    smith_normal_form,
)
from .fan import (  # noqa: F401
    Fan,
    build_fan,
    cone_properties,
    is_complete,
)
from .roots import (  # noqa: F401
    DemazureRoot,
    RootSet,
    roots_of_cone,
    roots_of_fan,
)
from .orbits import (  # noqa: F401
    FanAutomorphism,
    GOrbitPartition,
    HeConnectedPair,
    Orbit,
    StabilizerData,
    SymmetryChain,
    admits_g_structure,
    automorphism_order,
    classify_roots,
    fan_automorphisms,
    g_invariant_divisors,
    g_orbit_partition,
    he_connected_pairs,
    root_image,
    stabilizer_data,
    symmetry_chain,
    verify_root,
)
from .algebra import (  # noqa: F401
    CurveCarrier,
    Flow,
    HomogeneousLND,
    SemigroupElement,
    SymbolicElement,
    ToricCarrier,
    derive,
    exp_action,
    exp_symbolic,
    monomial,
    nilpotency_index,
    toric_lnd,
)
from .divisors import (  # noqa: F401
    INF,
    CoherencePair,
    CoherenceViolation,
    ColoredDivisor,
    FreeRankOne,
    PolyhedralDivisor,
    TailedPolyhedron,
    coherent_check,
    degree_zero_normalize,
    horizontal_lnd,
    toric_realization,
    trivial_polyhedron,
)

__version__ = "0.1.0"
